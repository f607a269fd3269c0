"""PageSpec dependency graphs: validation, generators, HAR-lite."""

import json

import pytest
from hypothesis import given, settings, strategies as st

from repro.workload import (
    PageObject,
    PageSpec,
    load_page,
    page_from_dict,
    synthetic_page,
)

pytestmark = pytest.mark.workload


def simple_page():
    return PageSpec("p", [
        PageObject("html", 1000, (), kind="html"),
        PageObject("css", 500, ("html",), kind="css"),
        PageObject("js", 700, ("html",), kind="js"),
        PageObject("img", 2000, ("css", "js"), kind="img"),
    ])


class TestPageSpec:
    def test_toposort_respects_dependencies(self):
        page = simple_page()
        order = {name: i for i, name in enumerate(page.order)}
        assert order["html"] < order["css"] < order["img"]
        assert order["html"] < order["js"] < order["img"]

    def test_roots_and_dependents(self):
        page = simple_page()
        assert [o.name for o in page.roots()] == ["html"]
        assert sorted(o.name for o in page.dependents("html")) \
            == ["css", "js"]

    def test_totals(self):
        page = simple_page()
        assert page.total_bytes == 4200
        assert len(page) == 4
        # Longest chain: html -> css -> img (or js branch: 1000+700+2000).
        assert page.critical_path_bytes() == 1000 + 700 + 2000

    def test_cycle_rejected(self):
        with pytest.raises(ValueError, match="cycle"):
            PageSpec("bad", [
                PageObject("a", 1, ("b",)),
                PageObject("b", 1, ("a",)),
            ])

    def test_unknown_dependency_rejected(self):
        with pytest.raises(ValueError, match="undeclared"):
            PageSpec("bad", [PageObject("a", 1, ("ghost",))])

    def test_duplicate_name_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            PageSpec("bad", [PageObject("a", 1), PageObject("a", 2)])

    def test_non_positive_size_rejected(self):
        with pytest.raises(ValueError):
            PageObject("a", 0)


class TestSyntheticPages:
    def test_deterministic_for_seed(self):
        a = synthetic_page(seed=5, n_objects=30)
        b = synthetic_page(seed=5, n_objects=30)
        assert a.to_dict() == b.to_dict()

    def test_seeds_differ(self):
        a = synthetic_page(seed=5, n_objects=30)
        b = synthetic_page(seed=6, n_objects=30)
        assert a.to_dict() != b.to_dict()

    def test_object_count_and_single_root(self):
        page = synthetic_page(seed=1, n_objects=23)
        assert len(page) == 23
        assert [o.name for o in page.roots()] == ["html"]

    def test_depth_bounds_tiers(self):
        page = synthetic_page(seed=2, n_objects=40, fanout=3, depth=3)
        # Every non-root object's chain to html is at most `depth` hops.
        def depth_of(name, page=page):
            obj = page.objects[name]
            if not obj.depends_on:
                return 0
            return 1 + max(depth_of(d) for d in obj.depends_on)
        assert max(depth_of(n) for n in page.objects) <= 3

    def test_sizes_within_bounds(self):
        page = synthetic_page(seed=3, n_objects=50, min_object=1000,
                              max_object=9000)
        for obj in page.objects.values():
            if obj.name != "html":
                assert 1000 <= obj.size <= 9000


class TestHarLite:
    def test_round_trip_through_json(self, tmp_path):
        page = synthetic_page(seed=4, n_objects=12)
        path = tmp_path / "page.json"
        path.write_text(json.dumps(page.to_dict()))
        loaded = load_page(str(path))
        assert loaded.to_dict() == page.to_dict()
        assert loaded.order == page.order

    def test_dict_defaults(self):
        page = page_from_dict({"objects": [{"name": "only", "size": 10}]})
        assert page.name == "page"
        assert page.objects["only"].kind == "object"
        assert page.objects["only"].depends_on == ()

    @pytest.mark.parametrize("data, field", [
        ({}, "objects"),
        ({"objects": 5}, "objects"),
        ([{"name": "a", "size": 1}], "page"),
        ({"objects": ["a"]}, r"objects\[0\]"),
        ({"objects": [{"size": 10}]}, "name"),
        ({"objects": [{"name": ["a"], "size": 10}]}, "name"),
        ({"objects": [{"name": "a"}]}, "size"),
        ({"objects": [{"name": "a", "size": "big"}]}, "size"),
        ({"objects": [{"name": "a", "size": 1e400}]}, "size"),
        ({"objects": [{"name": "a", "size": True}]}, "size"),
        ({"objects": [{"name": "a", "size": 0}]}, "size"),
        ({"objects": [{"name": "a", "size": 1},
                      {"name": "b", "size": 1, "depends_on": "a"}]},
         "depends_on"),
        ({"objects": [{"name": "a", "size": 1, "depends_on": [["b"]]}]},
         "depends_on"),
    ])
    def test_malformed_page_is_a_value_error_naming_the_field(
            self, data, field):
        with pytest.raises(ValueError, match=field):
            page_from_dict(data)

    def test_string_dependency_is_not_read_as_its_characters(self):
        with pytest.raises(ValueError, match="depends_on"):
            page_from_dict({"objects": [
                {"name": "a", "size": 1}, {"name": "b", "size": 1},
                {"name": "c", "size": 1}, {"name": "d", "size": 1,
                                           "depends_on": "bc"}]})


_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats()
    | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=8)
_NAMES = st.sampled_from(["a", "b", "c"])
_ENTRY = st.fixed_dictionaries({}, optional={
    "name": _NAMES | _JSON,
    "size": st.integers(-1, 3) | _JSON,
    "depends_on": st.lists(_NAMES, max_size=3) | _JSON,
    "kind": _JSON,
})
_PAGE = st.fixed_dictionaries({}, optional={
    "name": _JSON,
    "objects": st.lists(_ENTRY | _JSON, max_size=4) | _JSON,
})


@settings(max_examples=300, deadline=None)
@given(_PAGE | _JSON)
def test_hostile_dict_yields_a_page_or_a_value_error(data):
    try:
        page = page_from_dict(data)
    except ValueError:
        return
    assert isinstance(page, PageSpec)
    assert all(obj.size > 0 for obj in page.objects.values())

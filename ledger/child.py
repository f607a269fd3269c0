"""One workload in one fresh process: warm-up, timed iterations, and in
trace mode one more iteration under ``cProfile`` with the counting
sink.  Speaks JSON lines on stdout to ``run.py``, one per event, so the
parent can time set-up and watch each iteration from outside.

Closed loop, one thread: the next iteration starts when the previous
one has been checked.
"""

import argparse
import cProfile
import gc
import json
import resource
import sys
import time

import tracing
import workloads


def say(event, **fields):
    """Every line carries the peak RSS so far, so a child that is killed
    or dies has still reported it."""
    fields["event"] = event
    fields["peak_rss_mb"] = resource.getrusage(
        resource.RUSAGE_SELF).ru_maxrss / 1024.0
    sys.stdout.write(json.dumps(fields) + "\n")
    sys.stdout.flush()


def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--size-factor", type=float, default=1.0,
                        help="shrink every input by this (--quick: 0.25)")
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--cycles", type=int, default=None,
                        help="time every input exactly this many times "
                             "instead of for --seconds")
    parser.add_argument("--trace", type=int, default=0)
    args = parser.parse_args(argv)

    make_variants, run = workloads.WORKLOADS[args.workload]
    variants = make_variants(args.seed,
                             workloads.SCALE * args.size_factor)
    digests = {}

    def iteration(index, observer=None, profile=None):
        """Run and check input ``index``; returns the line to report."""
        # the traced run stays on input 0 so that traced and untraced
        # wall clocks, and the counts, are of the same work
        index = 0 if args.trace else index % len(variants)
        spans = tracing.Spans()
        gc.collect()
        try:
            started = time.perf_counter()
            if profile is not None:
                profile.enable()
            try:
                result = run(variants[index], spans, observer)
            finally:
                if profile is not None:
                    profile.disable()
            wall = time.perf_counter() - started
            digest = result["digest"]
            if digest is not None and \
                    digests.setdefault(index, digest) != digest:
                raise workloads.CheckFailed(
                    "sim_digest of input %d changed: %s then %s"
                    % (index, digests[index], digest))
            if observer is None and result["events_emitted"]:
                raise workloads.CheckFailed(
                    "%d events emitted with tracing off"
                    % result["events_emitted"])
        except Exception as exc:      # booked as a failed iteration
            return {"ok": False, "input": index,
                    "error": "%s: %s" % (type(exc).__name__, exc)}, spans
        result.update(ok=True, input=index, wall_s=wall)
        return result, spans

    # the inputs the timed iterations cycle through; whole cycles only,
    # so that every input is timed equally often whatever --seconds is
    # and however fast the machine
    cycle = 1 if args.trace else len(variants)
    warmup, _ = iteration(0)
    say("setup", sizes=variants[0], **warmup)

    deadline = time.perf_counter() + args.seconds
    done = 0
    while (done < args.cycles * cycle if args.cycles is not None
           else time.perf_counter() < deadline or done % cycle):
        done += 1
        line, _ = iteration(done)
        say("iter", **line)

    if args.trace:
        observer = tracing.Observer()
        profile = cProfile.Profile()
        line, spans = iteration(0, observer, profile)
        entries = profile.getstats()
        layers, profiled = tracing.bucket_profile(entries)
        counts = observer.counts(tracing.call_count(
            entries, "repro/core/crypto_context.py", "verify_at"))
        say("trace", layers=layers, profiled_s=profiled, counts=counts,
            function_calls=sum(entry.callcount for entry in entries),
            unit_costs=tracing.unit_costs(layers, counts),
            spans=spans.spans, **line)

    say("done")


if __name__ == "__main__":
    main()

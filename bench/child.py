"""One timed `polyembed pipeline` run in a fresh interpreter.

usage: child.py RESULT_JSON TRACE(0|1) -- PIPELINE_ARGS...

Times `import polyembed.cli` (setup_s) and `cli.run` (pipeline_s), reads
the process's peak RSS, and writes them as JSON to RESULT_JSON. With
TRACE=1 the package's layer boundaries are wrapped first (see spans.py)
and the span summary is added; the spans themselves go next to the
result as `.spans.npz`.
"""

import json
import resource
import sys
import time


def main() -> None:
    result_path, trace = sys.argv[1], sys.argv[2] == "1"
    argv = sys.argv[sys.argv.index("--") + 1:]

    t0 = time.perf_counter()
    import polyembed.cli as cli
    setup_s = time.perf_counter() - t0

    tracer = None
    if trace:
        import spans
        tracer = spans.Tracer()
        spans.install(tracer)

    t1 = time.perf_counter()
    rc = cli.run(argv)
    pipeline_s = time.perf_counter() - t1

    out = {
        "rc": rc,
        "setup_s": setup_s,
        "pipeline_s": pipeline_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "polyembed_file": sys.modules["polyembed"].__file__,
    }
    if tracer is not None:
        out["trace"] = tracer.summary()
        tracer.save(result_path + ".spans.npz")
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(out, fh)


if __name__ == "__main__":
    main()

"""Runs `edgevitals run` invocations inside this process, traced or not.

    python3 perfbench/inproc.py ARGVS_JSON OUT_JSON TRACED

ARGVS_JSON holds a list of argument lists for `edgevitals.cli.main`.
With TRACED=1 the layer hooks are installed first and every span is
written to OUT_JSON at the end; with TRACED=0 the same invocations run
bare, which gives the tracing overhead by difference. `edgevitals` must
be importable (the benchmark puts the checkout's `src` on PYTHONPATH).
"""

import contextlib
import io
import json
import sys
import time


def main():
    argvs_path, out_path, traced = sys.argv[1], sys.argv[2], sys.argv[3] == "1"
    with open(argvs_path, encoding="utf-8") as fh:
        argvs = json.load(fh)
    import edgevitals.cli

    spans, notes = [], []
    if traced:
        from layers import install_all
        from tracer import Tracer

        tracer = Tracer()
        notes = ["hook target missing: %s" % m for m in install_all(tracer)]
        spans = tracer.spans
    runs = []
    for argv in argvs:
        out, err = io.StringIO(), io.StringIO()
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = edgevitals.cli.main(argv)
        runs.append({"exit": code, "wall_s": time.perf_counter() - t0,
                     "stdout": out.getvalue(), "stderr": err.getvalue()})
    with open(out_path, "w", encoding="utf-8") as fh:
        if traced:
            notes += ["counter failed: %s" % e for e in tracer.errors]
        json.dump({"runs": runs, "spans": spans, "notes": notes}, fh)


if __name__ == "__main__":
    main()

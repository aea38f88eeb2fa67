"""One workload process: import the CLI, run one ``ctssim`` command, report.

Usage: python3 bench/worker.py SPEC.json

SPEC holds ``argv`` (the ctssim arguments, or null to only import),
``trace`` (install the span wrappers), ``result`` (where to write this
process's measurements) and ``spans`` (where a traced run writes its
spans).  ``setup_s`` is measured from ``spawned``, the parent's monotonic
clock reading taken just before it started this interpreter, to the
return of ``import ctssim.cli``; CLOCK_MONOTONIC is shared by every
process on the host.
"""

import time

import ctssim.cli

IMPORTED = time.monotonic()

import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402


def _capture_fit(record: list):
    """Keep ``fit_model``'s per-act convergence flags, which ``ctssim fit``
    does not print.  One extra call frame per ``fit``; no timing."""
    original = ctssim.cli.fit_model

    def fit_model(*args, **kwargs):
        model, report = original(*args, **kwargs)
        record.extend(bool(a.fit.converged) for a in report.per_act)
        return model, report

    ctssim.cli.fit_model = fit_model


def main(spec_path: str) -> int:
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    out = {
        "setup_s": IMPORTED - spec["spawned"],
        "ctssim_file": os.path.abspath(ctssim.cli.__file__),
    }
    if spec["argv"] is not None:
        tracer = None
        if spec["trace"]:
            from tracing import Tracer

            tracer = Tracer()
            out["missing_targets"] = tracer.install()
        converged: list[bool] = []
        if spec["argv"][0] == "fit":
            _capture_fit(converged)
        start = time.perf_counter()
        try:
            rc = ctssim.cli.main(spec["argv"])
        except SystemExit as exc:  # argparse usage errors
            rc = exc.code if isinstance(exc.code, int) else 2
        out["wall_s"] = time.perf_counter() - start
        out["rc"] = rc
        out["converged"] = converged
        if tracer is not None:
            tracer.dump(spec["spans"])
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    with open(spec["result"], "w", encoding="utf-8") as fh:
        json.dump(out, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))

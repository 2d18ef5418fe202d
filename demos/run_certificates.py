"""Run every bundled benchmark certificate and compare against expectations.

The package ships three benchmark systems, each with named certificates: a
claim (a checker plus its expected verdict) and a runner that reproduces it.
This demo builds each bundle, runs every certificate at reduced sample
counts, and prints verdict vs expectation — the library-level equivalent of
the command line's `reproduce` subcommand.

Run:  python3 demos/run_certificates.py
"""

import time

from rfdestab import REGISTRY, build_example
from rfdestab.cli import FALSIFIER_CHECKERS


def main() -> None:
    overall = True
    for name in REGISTRY:
        bundle = build_example(name)
        print(f"\n{name}: {bundle.system.dim_n}-dim, delay {bundle.system.delay_r}")
        for cert in bundle.certificates:
            t0 = time.perf_counter()
            # sweeps run fewer samples than their defaults, enough to exercise
            # the guard; trajectory certificates pick their own ensembles
            kwargs = {"samples": 1500} if cert.checker in FALSIFIER_CHECKERS else {}
            report = cert.runner(**kwargs)
            verdict = report.verdict
            ok = verdict == cert.expected
            overall &= ok
            mark = "ok " if ok else "MISMATCH"
            print(f"  [{mark}] {cert.name}: {verdict} "
                  f"(expected {cert.expected}, {time.perf_counter() - t0:.1f}s)")
            print(f"        {cert.description}")
    print(f"\nall certificates matched their expected verdicts: {overall}")


if __name__ == "__main__":
    main()

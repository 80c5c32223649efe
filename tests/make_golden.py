"""Regenerate the golden trace files.  Run from the repository root:

    python3 tests/make_golden.py

Only rerun this when an intentional format or algorithm change invalidates
the committed fixtures; test_golden.py byte-compares against these files.
"""

import os
import sys

sys.path.insert(0, os.path.dirname(__file__))

from _fixtures import (  # noqa: E402
    BENCH_WORKLOADS,
    GOLDEN_DIR,
    bench_workload_digest,
    golden_de2mfw,
    golden_de2mfw_config,
    golden_delmfw,
    golden_dgd,
    golden_dofw,
    golden_softmax_central,
    golden_softmax_net,
)


def main():
    os.makedirs(GOLDEN_DIR, exist_ok=True)
    for name, build in [("delmfw_t4.csv", golden_delmfw),
                        ("de2mfw_n3.csv", golden_de2mfw),
                        ("dofw_t3.csv", golden_dofw),
                        ("dgd_t3.csv", golden_dgd),
                        ("softmax_net_c3.csv", golden_softmax_net),
                        ("softmax_central_c9.csv", golden_softmax_central),
                        ("de2mfw_config.csv", golden_de2mfw_config)]:
        trace = build()[0]
        path = os.path.join(GOLDEN_DIR, name)
        trace.write_csv(path)
        print(f"wrote {path}")
    path = os.path.join(GOLDEN_DIR, "bench_workloads.sha256")
    with open(path, "w") as fh:
        fh.writelines(f"{bench_workload_digest(name)}  {name}\n" for name in sorted(BENCH_WORKLOADS))
    print(f"wrote {path}")


if __name__ == "__main__":
    main()

"""Compare two benchmark reports metric by metric.

    python3 perfbench/run.py --workload kernels --seed 1 --seconds 20 --report a.json
    python3 perfbench/run.py --workload kernels --seed 1 --seconds 20 --report b.json
    python3 perfbench/compare.py a.json b.json

Refuses (exit 2) when the two reports come from different workloads or
trace settings, or from different tape evaluators: the compiled and pure
engines differ by about 3x, which would swamp any change being measured.
"""
import json
import sys


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    reports = []
    for path in argv:
        with open(path, encoding="utf-8") as fh:
            reports.append(json.load(fh))
    a, b = reports
    for key in ("workload", "trace"):
        if a[key] != b[key]:
            print(f"refused: {key} differs ({a[key]!r} vs {b[key]!r})", file=sys.stderr)
            return 2
    if a["machine"]["engine"] != b["machine"]["engine"]:
        print(f"refused: engine differs ({a['machine']['engine']} vs "
              f"{b['machine']['engine']})", file=sys.stderr)
        return 2
    for side, r in (("a", a), ("b", b)):
        print(f"{side}: seed {r['seed']} commit {r['machine']['commit'][:12]} "
              f"engine {r['machine']['engine']} correct {r['correct']}")
    print(f"{'metric':<40} {'a':>14} {'b':>14} {'b/a':>8}")
    for name, ma in a["metrics"].items():
        va, vb = ma["value"], b["metrics"][name]["value"]
        ratio = f"{vb / va:8.3f}" if va else "       -"
        print(f"{name:<40} {va:>14.6g} {vb:>14.6g} {ratio} {ma['unit']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Plot the paper-style bar charts from bench/paper's CSV output.

Usage:
    mkdir -p results
    LSQSCALE_CSV_DIR=results ./build/bench/paper --only fig11
    python3 scripts/plot_figures.py results/*.csv -o results/

Each CSV (one per figure, written by bench/paper when LSQSCALE_CSV_DIR
is set) has a `benchmark` column followed by one column per bar series;
this renders grouped bar charts in the layout of the paper's figures
(benchmarks on the X axis, INT then FP).

Requires matplotlib; exits with a clear message if it is missing.
"""

import argparse
import csv
import os
import sys


def read_csv(path):
    with open(path, newline="") as f:
        rows = list(csv.reader(f))
    header = rows[0]
    benches = [r[0] for r in rows[1:]]
    series = {}
    for col in range(1, len(header)):
        series[header[col]] = [float(r[col]) for r in rows[1:]]
    return benches, series


def plot(path, outdir, percent):
    import matplotlib

    matplotlib.use("Agg")
    import matplotlib.pyplot as plt

    benches, series = read_csv(path)
    n = len(benches)
    k = max(1, len(series))
    width = 0.8 / k

    fig, ax = plt.subplots(figsize=(max(8, 0.6 * n), 4))
    for i, (label, values) in enumerate(series.items()):
        xs = [j + (i - (k - 1) / 2) * width for j in range(n)]
        ys = [v * 100 for v in values] if percent else values
        ax.bar(xs, ys, width=width, label=label)

    ax.set_xticks(range(n))
    ax.set_xticklabels(benches, rotation=45, ha="right")
    ax.set_ylabel("speedup (%)" if percent else "value")
    name = os.path.splitext(os.path.basename(path))[0]
    ax.set_title(name.replace("_", " "))
    ax.axhline(0, color="black", linewidth=0.8)
    ax.legend(fontsize=8)
    fig.tight_layout()

    out = os.path.join(outdir, name + ".png")
    fig.savefig(out, dpi=150)
    plt.close(fig)
    print("wrote", out)


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("csvs", nargs="+", help="CSV files from benches")
    ap.add_argument("-o", "--outdir", default=".", help="output dir")
    ap.add_argument(
        "--raw",
        action="store_true",
        help="plot raw values instead of percentages",
    )
    args = ap.parse_args()

    try:
        import matplotlib  # noqa: F401
    except ImportError:
        sys.exit("plot_figures.py requires matplotlib "
                 "(pip install matplotlib)")

    os.makedirs(args.outdir, exist_ok=True)
    for path in args.csvs:
        plot(path, args.outdir, percent=not args.raw)


if __name__ == "__main__":
    main()

"""Render the self-time tables of traced benchmark records as Markdown.

    python3 perfbench/tables.py perfbench/results/*-trace1.json

For each record: the pass time, the tracing overhead, one row per layer
(span and self time, self share of the traced pass) and one row per span
name (calls, total and self time, shares).
"""

from __future__ import annotations

import json
import sys


def render(record) -> str:
    table = record["table"]
    pass_s = table["pass_s"]
    env = record["environment"]
    lines = [
        f"## {record['workload']} (seed {record['seed']})",
        "",
        f"Traced pass {pass_s:.3f} s; untraced median "
        f"{record['wall_s_median']:.3f} s over {record['passes']} passes; "
        f"tracing overhead {record['per_layer']['trace.overhead_s']:.3f} s. "
        f"Python {env['python']}, numpy {env['numpy']}, scipy {env['scipy']}, "
        f"{env['nproc']} cores, BLAS threads "
        f"{env['env']['OPENBLAS_NUM_THREADS']}.",
        "",
        "| layer | span s | self s | self % of pass |",
        "|---|---:|---:|---:|",
    ]
    for row in table["layers"]:
        lines.append(f"| {row['layer']} | {row['span_s']:.4f} | "
                     f"{row['self_s']:.4f} | {100 * row['self_share']:.1f} |")
    lines += ["", "| span | calls | total s | total % | self s | self % |",
              "|---|---:|---:|---:|---:|---:|"]
    for row in table["spans"]:
        lines.append(
            f"| `{row['name']}` | {row['calls']} | {row['total_s']:.4f} | "
            f"{100 * row['total_s'] / pass_s:.1f} | {row['self_s']:.4f} | "
            f"{100 * row['self_share']:.1f} |")
    return "\n".join(lines) + "\n"


def main(paths):
    print("# Self time per layer and per span\n")
    print("Shares are of one traced pass; `total` counts a span's children, "
          "`self` does not.\n")
    for path in paths:
        with open(path) as fh:
            print(render(json.load(fh)))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

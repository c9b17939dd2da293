"""Fresh-process probes for the k3mod benchmark.

    python3 perfbench/probe.py setup WORKLOAD ARG
        import k3mod and fill the lazy state the workload's first op needs;
        the caller times the whole process (the workload's set-up cost).
    python3 perfbench/probe.py cli ARGV...
        run `k3mod ARGV...` in-process with the span tracer installed; the
        command's stdout is untouched and the cli layer's self time goes to
        stderr as the last line, prefixed "PERFBENCH ".

Both import k3mod from the `src` directory next to this one.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def warm(workload, arg):
    """Import every layer and fill the lazy state of the workload's first op."""
    import k3mod.cli  # noqa: F401  (imports every layer module)
    from k3mod import e8, lattice, qseries, roots

    if workload in ("verdict-low", "verdict-high"):
        e8.roots_2x()
        e8.weight_gram()
        qseries.theta_e7(240)
        qseries.theta_dn(5, 240)
        qseries.theta_dn(6, 240)
    elif workload == "lattice-enum":
        roots.enumerate_roots(e8.lattice())
        for name in ("E6", "E7", "D5", "D6", "D8"):
            roots.enumerate_roots(qseries.named_definite_lattice(name))
    elif workload == "reflect-disc":
        lattice.disc_group(lattice.make_l2d(int(arg)))
    else:
        raise ValueError(f"unknown workload {workload!r}")


def main(argv):
    sys.path.insert(0, str(ROOT / "src"))
    if argv[:1] == ["setup"] and len(argv) == 3:
        warm(argv[1], argv[2])
        return 0
    if argv[:1] == ["cli"]:
        from tracing import Tracer, cli_self_ms

        tracer = Tracer()
        tracer.install()
        from k3mod import cli

        tracer.active = True
        code = cli.run(argv[1:])
        tracer.active = False
        sys.stdout.flush()
        print("PERFBENCH " + json.dumps({"code": code, "cli_self_ms": cli_self_ms(tracer)}),
              file=sys.stderr)
        return 0
    print("usage: probe.py setup WORKLOAD ARG | probe.py cli ARGV...", file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

"""One workload iteration in a fresh interpreter.

usage: python child.py WORKLOAD SEED WORKDIR [SPANS_JSON]

With SPANS_JSON the iteration is traced: spiderlaw's call sites are rebound
to span-recording wrappers first, and the spans are written there at the end.
The exit code is the workload's own (``verify`` exits 1 when a check fails).
"""
import sys

import workloads


def main(argv) -> int:
    workload, seed, workdir = argv[0], int(argv[1]), argv[2]
    tracer = None
    if len(argv) > 3:
        import tracer as tracing
        tracer = tracing.install()
    code = workloads.run(workload, seed, workdir)
    if tracer is not None:
        tracer.dump(argv[3])
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

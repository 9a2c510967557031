"""Fresh-interpreter probes for set-up time and peak memory.

Run as a child of the benchmark, one at a time:

    python3 benchmarks/probes.py setup SRC_DIR '{"hbar": "0.5pi", ...}'
    python3 benchmarks/probes.py rss SRC_DIR '["figs", "--hbar=0.5pi", ..., "--out", DIR]'

`setup` times `import ratchet_lab.cli` plus parsing the workload's config;
`rss` runs one CLI invocation and reports the process's peak resident set.
Each prints one JSON object as its last line.
"""

from __future__ import annotations

import json
import resource
import subprocess
import sys
import time
from pathlib import Path

PROBE_TIMEOUT_S = 120


def _setup(overrides: dict[str, str]) -> dict:
    start = time.perf_counter()
    import ratchet_lab.cli  # noqa: F401  (the import is what is timed)
    from ratchet_lab.config import parse_config

    parse_config("", overrides)
    return {"setup_s": time.perf_counter() - start}


def _rss(argv: list[str]) -> dict:
    from ratchet_lab.cli import main

    code = main(argv)
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {"exit_code": code, "peak_rss_mb": peak_kib / 1024.0}


def run_probe(kind: str, src: Path, payload, env: dict[str, str]) -> dict:
    """Run one probe in a fresh interpreter and wait for it to end."""
    done = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), kind, str(src), json.dumps(payload)],
        capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, env=env, cwd=src.parent,
    )
    if done.returncode != 0:
        raise RuntimeError(f"{kind} probe exited {done.returncode}: {done.stderr.strip()[-2000:]}")
    return json.loads(done.stdout.strip().splitlines()[-1])


if __name__ == "__main__":
    kind, src, payload = sys.argv[1], sys.argv[2], json.loads(sys.argv[3])
    sys.path.insert(0, src)
    result = _setup(payload) if kind == "setup" else _rss(payload)
    print(json.dumps(result))

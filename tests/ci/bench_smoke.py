"""One traced pass of each bench workload: every op gated correct."""
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
for workload in ("repr-hosts", "check-warm", "scan-cold"):
    print("==", workload, flush=True)
    out = subprocess.run([sys.executable, "bench/run.py", "--workload",
                          workload, "--seed", "1", "--seconds", "1",
                          "--trace", "1"], cwd=ROOT, text=True,
                         capture_output=True)
    if out.returncode:
        # a failed run may print no document
        sys.exit(f"{workload}: bench/run.py exited {out.returncode}:\n"
                 + "\n".join(out.stderr.splitlines()[-20:]))
    sys.stderr.write(out.stderr)
    doc = json.loads(out.stdout.splitlines()[-1])
    if doc["correct"] is not True or doc["failed"] != 0:
        sys.exit(f"{workload}: correct {doc['correct']}, "
                 f"failed {doc['failed']}")

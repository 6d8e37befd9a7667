"""The connected-extremal scan at its cap, through the CLI.  Prints one JSON
line: the candidate count, the records digest and the scan's seconds."""
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
out = subprocess.run(
    [sys.executable, "-m", "symcover", "search", "connected-extremal",
     "--tail", "3", "--max-n", "8", "--json"], cwd=ROOT, text=True,
    capture_output=True, env=dict(os.environ, PYTHONPATH=str(ROOT / "src")))
if out.returncode:
    # stdout holds no document when the CLI stops with an error
    sys.exit(f"symcover exited {out.returncode}:\n"
             + "\n".join(out.stderr.splitlines()[-20:]))
doc = json.loads(out.stdout)
# every connected class on 5-8 vertices, as scanned at b8e5223; the
# records digest is the SHA-256 of the record lines, one per line
records = hashlib.sha256("\n".join(doc["records"]).encode()).hexdigest()
got = (doc["candidate_count"], doc["counterexamples"],
       doc["classification"], records)
print(json.dumps({"candidate_count": got[0], "counterexamples": got[1],
                  "classification": got[2], "records_sha256": records,
                  "elapsed_s": doc["elapsed_s"]}))
want = (12103, [], ["D~{"],
        "f74a8b784c3c0aa4fcf8650b7fd1c617"
        "37e52ef5a2d99290418562070c9436fc")
if got != want:
    sys.exit(f"{got}, expected {want}")

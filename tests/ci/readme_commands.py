"""Every `symcover` line of the README's Command line block exits 0."""
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
text = (ROOT / "README.md").read_text(encoding="utf-8")
section = text.split("\n## Command line\n", 1)[1]
section = section.split("\n## ", 1)[0]
block = re.search(r"```sh\n(.*?)```", section, re.S).group(1)
lines = [line for line in block.splitlines() if line.startswith("symcover ")]
if not lines:
    sys.exit("no symcover line in the Command line block")
env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
for line in lines:
    print("==", line, flush=True)
    code = subprocess.run([sys.executable, "-m", "symcover",
                           *shlex.split(line)[1:]], cwd=ROOT, env=env,
                          stdout=subprocess.DEVNULL).returncode
    if code:
        sys.exit(f"{line}: exit {code}")

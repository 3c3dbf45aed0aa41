"""Write the default-sweep artifacts of every corpus field.

    PYTHONPATH=src python tests/corpus_artifacts.py OUT

runs ``python -m blowup --field F --sweep --out .`` for each field F of
``corpus.TABLE``, inside the directory OUT/F, and saves its stdout, stderr
and exit code there next to the artifacts.  The run imports ``blowup``
from the PYTHONPATH it is given, so pointing PYTHONPATH at another tree's
``src`` writes that tree's artifacts, and two trees compare with
``diff -r OUT_A OUT_B``.
"""

import os
import subprocess
import sys

import corpus


def main(argv):
    if len(argv) != 1:
        print("usage: corpus_artifacts.py OUT", file=sys.stderr)
        return 1
    # the runs start inside OUT/F, so a relative PYTHONPATH must be resolved here
    env = dict(os.environ)
    paths = env.get("PYTHONPATH", "").split(os.pathsep)
    env["PYTHONPATH"] = os.pathsep.join(os.path.abspath(p) for p in paths if p)
    for text in corpus.TABLE:
        out = os.path.join(argv[0], text)
        os.makedirs(out, exist_ok=True)
        proc = subprocess.run(
            [sys.executable, "-m", "blowup", "--field", text, "--sweep", "--out", "."],
            cwd=out, env=env, capture_output=True, text=True,
        )
        for name, content in (
            ("stdout.txt", proc.stdout),
            ("stderr.txt", proc.stderr),
            ("exit_code.txt", f"{proc.returncode}\n"),
        ):
            with open(os.path.join(out, name), "w", newline="") as fh:
                fh.write(content)
        print(f"{text}: exit {proc.returncode}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

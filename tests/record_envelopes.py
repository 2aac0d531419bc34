"""Re-record ``tests/envelopes.json``: run each row's argv through the
installed ``fincat`` script, rewrite the table, and print each row that
moved as old → new, for the change log.  It takes no arguments:

    python tests/record_envelopes.py

A new row needs only its argv; the script fills in the rest."""
import json
import subprocess
import tempfile
from pathlib import Path

from helpers import ENVELOPES, envelope_row, write_envelope_inputs


def main():
    rows, recorded = json.loads(ENVELOPES.read_text()), []
    with tempfile.TemporaryDirectory() as directory:
        write_envelope_inputs(Path(directory))
        for old in rows:
            argv = old["argv"]
            run = subprocess.run(["fincat", *argv], cwd=directory, capture_output=True, text=True)
            recorded.append(envelope_row(argv, run.returncode, run.stdout, run.stderr))
            if recorded[-1] != old:
                print(f"{' '.join(argv)}: {json.dumps(old)} → {json.dumps(recorded[-1])}")
    lines = (json.dumps(row, ensure_ascii=False) for row in recorded)
    ENVELOPES.write_text("[\n" + ",\n".join(lines) + "\n]\n")


if __name__ == "__main__":
    main()

"""Record the SHA-256 of every CLI render in jobs.cli_catalog().

    python3 perfbench/record_digests.py

The artifacts workload requires each render to match these bytes, since
CLI output must stay byte-identical unless a change says why it differs.
Rerun this only for a change that alters CLI output on purpose.
"""

import json

from run import import_program

import_program()

import checks  # noqa: E402
import jobs  # noqa: E402

digests = {}
for argv in jobs.cli_catalog():
    code, text = jobs.render(argv)
    if code != 0:
        raise SystemExit(f"`{' '.join(argv)}` exited with {code}")
    digests[" ".join(argv)] = checks.digest(text)
with open(checks.DIGESTS_PATH, "w") as fh:
    json.dump(digests, fh, indent=1)
    fh.write("\n")
print(f"recorded {len(digests)} digests in {checks.DIGESTS_PATH}")

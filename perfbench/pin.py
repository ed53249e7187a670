"""Write perfbench/expected.json from the current program's outputs.

    python3 perfbench/pin.py

The file pins what the benchmark checks on the committed fixtures: the
outcome of every ``cli-mix`` call and the canonical-text and interchange
digests of each fixture.  Re-pin only for an intended output change.
"""

import json
import subprocess
import sys

import workloads

sys.path.insert(0, str(workloads.SRC))

from evrforge import dsl  # noqa: E402


def main() -> int:
    expected: dict = {"cli-mix": {}, "fixtures": {}}
    for argv in workloads.CLI_ROUND:
        done = subprocess.run([sys.executable, "-m", "evrforge.cli"] + argv,
                              cwd=workloads.ROOT, env=workloads.child_env(),
                              capture_output=True, text=True, timeout=60)
        expected["cli-mix"][workloads.cli_key(argv)] = workloads.cli_outcome(
            argv, done.returncode, done.stdout, done.stderr)
    for path in sorted(workloads.FIXTURES.glob("*.evr")):
        doc = dsl.parse_register(path.read_text(encoding="utf-8"), path.name).document
        expected["fixtures"][path.name] = workloads.fixture_digests(doc)
    workloads.EXPECTED.write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n",
                                  encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Print the sha256 of every closed-form op's output, as bench/digests.json.

The closed-form workload checks each output against these digests, so they
are a record of the outputs at one commit. They were recorded at
6f789f2b453f13d9582b1bf33141fb7977ca056e, before any change to src/:

    python3 bench/record_digests.py > bench/digests.json

Re-recording at a later commit would make the check compare a commit with
itself; a change that alters any output byte must explain why instead.
"""

from __future__ import annotations

import hashlib
import json
import sys

import run
import workloads


def main() -> int:
    fm = run.import_fmgame()
    universe = workloads.closed_form_universe()
    cfg_dir = run.OUT / "cfg"
    workloads.write_cfgs(universe, run.ROOT, cfg_dir)
    digests = {}
    for kind, config, value in universe:
        name, argv = workloads.closed_form_argv(kind, config, value, cfg_dir, run.ROOT)
        rc, text = workloads.run_cli(fm.cli, argv)
        if rc != 0:
            print(f"error: {name} exited {rc}: {text.strip()}", file=sys.stderr)
            return 1
        digests[name] = hashlib.sha256(text.encode("utf-8")).hexdigest()
    json.dump({"commit": run.git_commit(), "sha256": digests}, sys.stdout, indent=1)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

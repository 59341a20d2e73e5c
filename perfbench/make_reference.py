"""Write perfbench/reference.json from the current package.

    python3 perfbench/make_reference.py

The references are the outputs of the code they were made from: the CheckResult
verdicts and details of A1..A13, the model dimension and EigenReport.to_json()
of each model case, and the exit code and SHA-256 of the stdout of every cli
command, for each theta.  A hit must print the bytes of its miss; the one
exception is `verify --suite rho`, whose A6 line says "(recorded)" only on the
run that writes the rho convention into the cache directory.  Regenerate only
for an output change that is intended, and say why in the change.
"""

from __future__ import annotations

import hashlib
import json
import sys

import run

HIT_DIFFERS = {"verify_rho"}


def main() -> int:
    runner = run.Runner(run.perf() + 3600)
    try:
        where = runner.fresh_dir()
        verify = runner.spawn("verify", ["verify"], where, "reference")
        model = {}
        for g, sign, theta in run.MODEL_CASES:
            key = run.model_key(g, sign, theta)
            model[key] = runner.spawn(f"model {key}", ["model", g, sign, theta],
                                      where, "reference").result["output"]
        cli = {}
        for theta in run.THETAS:
            where = runner.fresh_dir()
            cache = str(where / "cache")
            for pass_name in ("miss", "hit"):
                for cid, args in run.cli_commands(theta):
                    proc = runner.spawn(cid, ["cli", *args, "--cache-dir", cache],
                                        where, "reference")
                    digest = hashlib.sha256(proc.stdout).hexdigest()
                    if pass_name == "miss":
                        cli[cid] = {"exit": proc.code, "sha256": digest}
                    elif digest != cli[cid]["sha256"]:
                        if cid not in HIT_DIFFERS:
                            raise SystemExit(f"{cid}: the hit pass printed other bytes")
                        cli[cid]["sha256_hit"] = digest
                    elif proc.code != cli[cid]["exit"]:
                        raise SystemExit(f"{cid}: the hit pass exited {proc.code}")
    finally:
        runner.close()
    doc = {"verify": verify.result["output"], "model": model, "cli": cli}
    run.REFERENCE.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    print(f"wrote {run.REFERENCE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

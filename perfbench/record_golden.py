"""Record the expected outputs that the workload checks compare against.

    python3 perfbench/record_golden.py

Runs one step of every workload on every input variant and writes the
digests to ``golden.json``, tagged with the commit and source digest they
came from. The file in the repository was recorded on the commit that
introduced the benchmark; re-recording it on a later commit would let that
commit's behaviour change pass the checks unnoticed.
"""

import json
import sys
import tempfile

import run  # sets the BLAS thread count before numpy is imported

sys.path.insert(0, str(run.SRC))

import workloads  # noqa: E402


def main() -> int:
    doc = {"recorded_on": {"git_commit": run.git_commit(), "src_sha256": run.src_digest()},
           "workloads": {}}
    run.OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.OUT) as scratch:
        for name, cls in workloads.WORKLOADS.items():
            entries = doc["workloads"][name] = {}
            for variant in range(workloads.N_VARIANTS):
                wl = cls(variant, scratch)
                wl.setup()
                _, _, out = wl.step()
                problems = wl.check(out, None)
                if problems:
                    print(f"{name} variant {variant}: " + "; ".join(problems), file=sys.stderr)
                    return 1
                entries[str(variant)] = wl.digest(out)
                print(name, variant, entries[str(variant)], flush=True)
    (run.HERE / "golden.json").write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())

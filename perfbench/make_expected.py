"""Regenerate expected.json: the witness sets the verdict checks compare
against, taken from a run of the sweeps on trusted code.

    python3 perfbench/make_expected.py

Only rerun it on code whose sweep results are known to be right; the checks
are only as good as this file.
"""

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import workloads  # noqa: E402
from mnlab import check_lemma, check_theorem1, check_theorem2  # noqa: E402


def main() -> None:
    facts = workloads.expected_facts(
        check_lemma(workloads.LEMMA_MAX_ORDER).to_dict(),
        check_theorem1(workloads.THEOREM_P).to_dict(),
        check_theorem2(workloads.THEOREM_P, workloads.THEOREM2_MAX_SIZE).to_dict())
    workloads.EXPECTED_PATH.write_text(json.dumps(facts, indent=1) + "\n")
    print(f"wrote {workloads.EXPECTED_PATH.name}: {len(facts['lemma_keys'])} lemma"
          f" findings, {len(facts['theorem1_witness_groups'])} theorem1 witnesses,"
          f" {len(facts['theorem2_closed_systems'])} closed systems")


if __name__ == "__main__":
    main()

"""The recorded form of a sweep report, the one place that says which field
is outside the determinism contract.

A report is fully determined by its parameters except for ``timing_ms``.
``recorded_text`` is the form of the JSON files under ``tests/data``, and
``recorded_digest`` the form of ``tests/data/lemma_48.sha256``, whose report
is too large to keep.
"""

import hashlib
import json

UNRECORDED = ("timing_ms",)


def recorded_text(report: dict) -> str:
    """`report` (a ``VerificationReport.to_dict()``) without the fields
    outside the contract, as sorted, indented JSON and a newline."""
    kept = {k: v for k, v in report.items() if k not in UNRECORDED}
    return json.dumps(kept, indent=2, sort_keys=True) + "\n"


def recorded_digest(report: dict) -> str:
    """SHA-256 of ``recorded_text(report)`` without its newline."""
    return hashlib.sha256(recorded_text(report)[:-1].encode()).hexdigest()

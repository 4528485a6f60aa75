"""The four-pass answer normalizer, kept as the reference that
`evaluation.qa_normalize` must equal."""

import re


def reference_normalize(text: str) -> str:
    """Lowercase, drop the tokens a, an and the, strip punctuation, then
    collapse whitespace and trim."""
    out = text.lower()
    out = " ".join(tok for tok in out.split() if tok not in {"a", "an", "the"})
    out = re.sub(r"[^\w\s]", "", out)
    out = " ".join(out.split())
    return out

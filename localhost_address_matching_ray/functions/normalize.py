"""Normalization kernels — the code-corpus analog of the reference's
normalizer chain (``src/address_matching/normalization/normalize_address.py``).

Reference → ours:

* ``pre_normalize`` (NFKC + whitespace smoothing, ``normalize_address.py:128-136``)
  → :func:`normalize_content` (NFC + whitespace run collapse + trim).
* ``normalize_static_parser`` — the *join-key* normalization with ASCII fold
  (``normalize_address.py:240-268``) → :func:`canonicalize_path` /
  :func:`path_stem` — the blocking-key canonicalizer.
* abbreviation canonicalization (``mah./mh./mahallesi → mah``,
  ``normalize_address.py:52-108``) → separator folding in paths
  (``-``/space → ``_``) so renamed-path copies share a stem.
* idempotence property (``normalize_address.py:290-296``) → every function
  here satisfies ``f(f(x)) == f(x)``; tested in ``tests/test_normalize.py``.

Each kernel documents its exact DuckDB-SQL equivalent so the driver's oracle
comparison is byte-identical.
"""

from __future__ import annotations

import re
import unicodedata

import numpy as np

_WS_RUN = re.compile(r"\s+")
_SLASH_RUN = re.compile(r"/+")
_SEP_FOLD = re.compile(r"[-\s]+")
_NON_STEM = re.compile(r"[^a-z0-9_]+")


def normalize_content(text: str) -> str:
    """Whitespace-insensitive content canonical form.

    NFC-normalize, collapse every whitespace run to a single space, trim.
    SQL equivalent: ``trim(regexp_replace(nfc_normalize(content), '\\s+', ' ', 'g'))``.
    Idempotent.
    """
    return _WS_RUN.sub(" ", unicodedata.normalize("NFC", text)).strip()


def normalize_content_array(texts) -> list[str]:
    """Vectorized :func:`normalize_content` over any string sequence."""
    sub, norm = _WS_RUN.sub, unicodedata.normalize
    return [sub(" ", norm("NFC", t)).strip() for t in texts]


#: ASCII members of Python-re ``\s`` — the only ones an ASCII row can contain
_ASCII_WS_PAT = "[\\t\\n\\x0b\\x0c\\r\\x1c-\\x1f ]+"

def _value_bytes(arr) -> "np.ndarray | None":
    """The value bytes of a string / large_string array's rows, as a uint8
    view of its data buffer (no copy); None for any other layout."""
    import pyarrow as pa

    if pa.types.is_string(arr.type):
        off_t = np.int32
    elif pa.types.is_large_string(arr.type):
        off_t = np.int64
    else:
        return None
    bufs = arr.buffers()
    if bufs[2] is None:
        return np.empty(0, np.uint8)
    offs = np.frombuffer(bufs[1], off_t)
    lo = int(offs[arr.offset])
    hi = int(offs[arr.offset + len(arr)])
    return np.frombuffer(bufs[2], np.uint8)[lo:hi]


def content_scans(arr) -> tuple[bool, bool]:
    """The two batch-wide scans every Arrow fast path keys on, as
    ``(every value is ASCII, any value carries \\x1c-\\x1f)``, read
    straight off the value buffer: the ASCII test is one ``max`` (~20× less
    than ``string_is_ascii``), the separator test one range-compare (~25×
    less than substring scans). The four separators \\x1c-\\x1f are in
    Python-``\\s`` (the scalar spec) but NOT in Arrow's
    ``ascii_split_whitespace`` class, so an array carrying them must take
    the RE2 path. Compute the scans once per batch and hand them to
    :func:`normalize_content_tokens_arrow` and :func:`batch_is_clean`.
    Non-string layouts report (False, True), which sends them to the
    per-row paths."""
    from localhost_address_matching_ray.functions.arrowbuf import one_array

    nb = _value_bytes(one_array(arr))
    if nb is None:
        return False, True
    all_ascii = not len(nb) or int(nb.max()) < 128
    # one wrapping subtract + compare: 28..31 map to 0..3, all else above
    return all_ascii, bool(((nb - np.uint8(28)) < 4).any())


def batch_is_clean(arr, scans) -> bool:
    """True when no value is null, every value is ASCII and none carries
    \\x1c-\\x1f: Arrow's ``ascii_split_whitespace`` then splits every row
    exactly as the scalar normalize + split does. Comment stripping only
    replaces characters with spaces, so every slice of a clean array stays
    clean after it."""
    all_ascii, c_controls = scans
    return arr.null_count == 0 and all_ascii and not c_controls


def _nonempty_parts(parts) -> np.ndarray:
    """Per-row count of non-empty parts of an ``ascii_split_whitespace``
    result without nulls. Runs are one separator there, so an empty part can
    sit only at a row's first or last place: the count is the part count
    minus an empty first and an empty last part (``[""]``, the empty row,
    counts 0). Reads the two offset buffers only; no pass over the tokens."""
    import pyarrow as pa

    lo = parts.offsets.to_numpy()
    vals = parts.values
    off_t = np.int64 if pa.types.is_large_string(vals.type) else np.int32
    vo = np.frombuffer(vals.buffers()[1], off_t)[vals.offset:]
    if len(lo) < 2:
        return np.zeros(0, np.int64)
    first_empty = vo[lo[:-1] + 1] == vo[lo[:-1]]
    last_empty = vo[lo[1:]] == vo[lo[1:] - 1]
    n = np.diff(lo).astype(np.int64) - first_empty - last_empty
    return np.maximum(n, 0)


def normalize_content_arrow(arr):
    """:func:`normalize_content` over an Arrow string array, bit-identical
    (see :func:`normalize_content_tokens_arrow`)."""
    return normalize_content_tokens_arrow(arr)[0]


def normalize_content_tokens_arrow(arr, scans=None):
    """:func:`normalize_content_arrow` plus each normalized row's whitespace
    token count (``len(norm.split(" "))``, 0 for ``""``), as
    ``(normalized, counts)``. The counts come from the split that builds the
    normalized strings, so they are an int64 Arrow array only when that split
    served every row (:func:`batch_is_clean`), and None otherwise. ``scans``
    is the array's :func:`content_scans`, when the caller has it already.

    ASCII rows (the overwhelming majority of a code corpus) run entirely in
    C — NFC is the identity on ASCII, so only the whitespace collapse +
    trim remain, executed by Arrow's non-regex kernels:
    ``ascii_split_whitespace`` emits one part per token (empty parts only at
    the row edges), ``binary_join(…, ' ')`` + ``utf8_trim`` rebuild the
    collapsed string — measured ~2.8× faster than the RE2 global
    substitution on code text. Rows carrying \\x1c-\\x1f (in
    Python-``\\s`` but not Arrow's ascii whitespace class) take the RE2
    substitution; non-ASCII rows fall back to the scalar kernel per row
    (pyarrow's ``utf8_normalize`` cannot be used: as of 16.x it fails to
    COMPOSE — NFC('e'+U+0301) stays decomposed). Parity is property-tested
    in ``tests/test_normalize.py``."""
    import pyarrow as pa
    import pyarrow.compute as pc

    from localhost_address_matching_ray.functions.arrowbuf import one_array

    arr = one_array(arr)
    all_ascii, c_controls = scans if scans is not None else content_scans(arr)
    counts = None
    if c_controls:
        fast = pc.utf8_trim(
            pc.replace_substring_regex(arr, pattern=_ASCII_WS_PAT, replacement=" "),
            characters=" ",
        )
    else:
        parts = pc.ascii_split_whitespace(arr)
        sep = pa.scalar(" ", pa.large_string()) if pa.types.is_large_string(arr.type) else " "
        fast = pc.utf8_trim(pc.binary_join(parts, sep), characters=" ")
        if batch_is_clean(arr, (all_ascii, c_controls)):
            counts = pa.array(_nonempty_parts(parts), pa.int64())
    if all_ascii:
        return fast, counts
    is_ascii = pc.string_is_ascii(arr)
    mask = np.asarray(is_ascii.to_numpy(zero_copy_only=False), dtype=bool)
    slow_idx = np.flatnonzero(~mask)
    slow_vals = normalize_content_array(arr.take(pa.array(slow_idx)).to_pylist())
    out = fast.to_pylist()
    for i, v in zip(slow_idx, slow_vals):
        out[i] = v
    return pa.array(out, pa.string()), None


def strip_comments_arrow(arr, comment_styles):
    """:func:`strip_comments` over an Arrow string array, bit-identical
    (RE2 ``(?s)`` == Python ``re.S``; the line patterns are shared)."""
    import pyarrow.compute as pc

    if "/*" in comment_styles:
        arr = pc.replace_substring_regex(arr, pattern=r"(?s)/\*.*?\*/", replacement=" ")
    for style in comment_styles:
        if style == "#":
            arr = pc.replace_substring_regex(arr, pattern=r"#[^\n]*", replacement=" ")
        elif style == "//":
            arr = pc.replace_substring_regex(arr, pattern=r"//[^\n]*", replacement=" ")
    return arr


def canonicalize_path(path: str) -> str:
    """Canonical repo path: NFC, lowercase, ``\\`` → ``/``, collapse ``//``,
    strip leading ``./`` and ``/``, trim.

    SQL equivalent:
    ``regexp_replace(regexp_replace(lower(nfc_normalize(p)), '\\\\', '/', 'g'), '/+', '/', 'g')``
    then ``regexp_replace(..., '^(\\./)+|^/+', '')``. Idempotent.
    """
    p = unicodedata.normalize("NFC", path).lower().replace("\\", "/")
    p = _SLASH_RUN.sub("/", p).strip()
    p = re.sub(r"^(\./)+", "", p)
    return p.lstrip("/")


def canonicalize_path_array(paths) -> list[str]:
    return [canonicalize_path(p) for p in paths]


def path_stem(canonical_path: str) -> str:
    """Blocking stem of an already-canonical path: final component, extension
    dropped, ``-``/space folded to ``_``, non ``[a-z0-9_]`` stripped.

    The ``mah/mh/mahallesi → mah`` analog: renamed copies
    (``Foo-Bar.py`` / ``foo_bar.py``) share the stem ``foo_bar``.
    SQL equivalent (on the canonical path):
    ``regexp_replace(regexp_replace(regexp_replace(p, '^.*/', ''), '\\.[^.]*$', ''), '[^a-z0-9_]+', '_', 'g')``
    — note SQL folds every non-stem char to ``_`` in one pass, so this
    function does the same. Idempotent.
    """
    name = canonical_path.rsplit("/", 1)[-1]
    dot = name.rfind(".")
    if dot > 0:
        name = name[:dot]
    return _NON_STEM.sub("_", name)


def path_stem_array(canonical_paths) -> list[str]:
    return [path_stem(p) for p in canonical_paths]


def tokenize(normalized_content: str) -> list[str]:
    """Whitespace tokens of an already-normalized content string
    (``static_parser.py:60-61`` analog). SQL: ``string_split(c, ' ')``."""
    return normalized_content.split(" ") if normalized_content else []


def strip_stop_tokens(tokens: list[str], stop: frozenset[str]) -> list[str]:
    """Drop per-lang stop tokens before shingling — the standalone-``mah``
    strip analog (``data/ptt_data/map.py:211-215``)."""
    return [t for t in tokens if t not in stop]


def strip_comments(text: str, comment_styles: tuple[str, ...]) -> str:
    """Remove line comments / block comments for the given per-lang styles.

    Supports ``#``, ``//`` (to end of line) and ``/*`` (to matching ``*/``).
    Deliberately simple (no string-literal awareness) — deterministic and
    cheap; used for the comment-insensitive near-dup variant only.
    """
    if "/*" in comment_styles:
        text = re.sub(r"/\*.*?\*/", " ", text, flags=re.S)
    for style in comment_styles:
        if style == "#":
            text = re.sub(r"#[^\n]*", " ", text)
        elif style == "//":
            text = re.sub(r"//[^\n]*", " ", text)
    return text


def token_count_array(texts) -> np.ndarray:
    """Token counts via the same whitespace rule as :func:`normalize_content`.
    SQL: ``len(string_split(trim(regexp_replace(text,'\\s+',' ','g')), ' '))``
    (with empty → 0)."""
    out = np.empty(len(texts), dtype=np.int64)
    for i, t in enumerate(texts):
        n = normalize_content(t)
        out[i] = len(n.split(" ")) if n else 0
    return out

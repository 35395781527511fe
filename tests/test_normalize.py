"""Golden input→output pairs for the normalizer kernels — the analog of the
reference's ``test/test_normalize.py`` (20 exact pairs per pipeline variant)
plus the idempotence property (``normalize_address.py:290-296``)."""

import pytest

from localhost_address_matching_ray.functions.normalize import (
    canonicalize_path,
    normalize_content,
    path_stem,
    strip_comments,
    token_count_array,
    tokenize,
)

PATH_GOLDEN = [
    ("src/Main.PY", "src/main.py"),
    ("./src//utils\\io.py", "src/utils/io.py"),
    ("/Lib/Foo-Bar.js", "lib/foo-bar.js"),
    ("a/./b.c", "a/./b.c"),          # inner ./ is data, only leading stripped
    ("././x.go", "x.go"),
    ("SRC\\\\PKG\\MOD.JAVA", "src/pkg/mod.java"),
    ("  spaced/path.md", "spaced/path.md"),
]

STEM_GOLDEN = [
    ("src/main.py", "main"),
    ("lib/foo-bar.js", "foo_bar"),
    ("a/b/data loader.go", "data_loader"),
    ("x/.hidden", "_hidden"),        # leading-dot file keeps its name
    ("pkg/mod.test.java", "mod_test"),
    ("noext", "noext"),
    ("w/weird~~name!.c", "weird_name_"),  # input is already canonical (lowercase)
]

CONTENT_GOLDEN = [
    ("a  b\tc\n\nd ", "a b c d"),
    ("", ""),
    ("  \n ", ""),
    ("one", "one"),
    ("x\r\ny", "x y"),
]


@pytest.mark.parametrize("raw,expected", PATH_GOLDEN)
def test_canonicalize_path_golden(raw, expected):
    assert canonicalize_path(raw) == expected


@pytest.mark.parametrize("raw,expected", PATH_GOLDEN)
def test_canonicalize_path_idempotent(raw, expected):
    assert canonicalize_path(canonicalize_path(raw)) == canonicalize_path(raw)


@pytest.mark.parametrize("path,expected", STEM_GOLDEN)
def test_path_stem_golden(path, expected):
    assert path_stem(path) == expected


@pytest.mark.parametrize("raw,expected", CONTENT_GOLDEN)
def test_normalize_content_golden(raw, expected):
    assert normalize_content(raw) == expected
    assert normalize_content(normalize_content(raw)) == normalize_content(raw)


def test_tokenize():
    assert tokenize("a b c") == ["a", "b", "c"]
    assert tokenize("") == []


def test_strip_comments_hash():
    src = "x = 1  # set x\ny = 2\n# whole line\nz = 3"
    out = strip_comments(src, ("#",))
    assert "#" not in out and "set x" not in out and "y = 2" in out


def test_strip_comments_block_and_line():
    src = "int a; // tail\n/* multi\nline */ int b;"
    out = strip_comments(src, ("//", "/*"))
    assert "tail" not in out and "multi" not in out and "int b;" in out


def test_token_count_array():
    counts = token_count_array(["a b  c", "", "  ", "single"])
    assert counts.tolist() == [3, 0, 0, 1]


def test_arrow_kernels_match_scalar():
    """normalize_content_arrow / strip_comments_arrow are bit-identical to
    the scalar kernels — fuzzed over ASCII + unicode whitespace + combining
    accents (the pyarrow utf8_normalize compose bug means non-ASCII rows
    must take the scalar fallback; this asserts the routing is airtight)."""
    import random

    import pyarrow as pa

    from localhost_address_matching_ray.functions.normalize import (
        normalize_content_arrow,
        strip_comments_arrow,
    )

    rng = random.Random(11)
    pool = "abc de(){}#/*x*/ \t\n\xa0é\x0b　// c\n\x1c"
    texts = ["".join(rng.choice(pool) for _ in range(rng.randint(0, 120)))
             for _ in range(1500)]
    texts += ["", " ", "plain", "# line", "/* b */ x", "a\xa0b", "café"]
    arr = pa.array(texts, pa.string())

    assert normalize_content_arrow(arr).to_pylist() == [
        normalize_content(t) for t in texts
    ]
    for styles in (("#",), ("//", "/*"), ("#", "//", "/*"), ()):
        assert strip_comments_arrow(arr, styles).to_pylist() == [
            strip_comments(t, styles) for t in texts
        ]


def test_normalize_tokens_arrow_counts_match_scalar():
    """The token counts normalize_content_tokens_arrow takes from its split
    equal ``len(normalize_content(t).split(" "))`` (0 for empty) on clean
    arrays, sliced and large_string ones too; any non-ASCII, \\x1c-\\x1f or
    null value makes the counts None."""
    import random

    import pyarrow as pa

    from localhost_address_matching_ray.functions.normalize import (
        normalize_content_tokens_arrow,
    )

    rng = random.Random(5)
    pool = "ab c\t\n\x0b\x0c\r "
    texts = ["".join(rng.choice(pool) for _ in range(rng.randint(0, 40)))
             for _ in range(2000)]
    texts += ["", " ", "  \n", "x", " x", "x ", " x y  "]
    want = [len(n.split(" ")) if n else 0 for n in map(normalize_content, texts)]
    for typ in (pa.string(), pa.large_string()):
        arr = pa.array(texts, typ)
        norm, counts = normalize_content_tokens_arrow(arr)
        assert norm.to_pylist() == [normalize_content(t) for t in texts]
        assert counts.to_pylist() == want
        _, counts = normalize_content_tokens_arrow(arr.slice(3, 500))
        assert counts.to_pylist() == want[3:503]
    for odd in ("café", "a\x1cb", None):
        _, counts = normalize_content_tokens_arrow(pa.array(["a b", odd], pa.string()))
        assert counts is None


def test_batch_tokens_matches_doc_tokens():
    """FeatureExtractor._batch_tokens == per-row _doc_tokens, including
    comment styles, stop tokens, and extra_rules."""
    import pyarrow as pa

    from localhost_address_matching_ray.config import PipelineConfig
    from localhost_address_matching_ray.stages.feature_stage import FeatureExtractor

    cfg = PipelineConfig(extra_rules=((r"v\d+", "vN"),))
    fx = FeatureExtractor(cfg)
    contents = [
        "def f():  # comment\n    return v12",
        "int a; // tail v3\n/* block */ int b;",
        "plain text v9 end",
        "",
        "x\xa0y v1",
    ]
    langs = ["python", "c", "zz", "python", "javascript"]
    got = fx._batch_tokens(pa.array(contents, pa.string()), langs)
    want = [fx._doc_tokens(c, lg) for c, lg in zip(contents, langs)]
    assert got == want


def test_batch_token_hashes_matches_doc_tokens():
    """The Arrow-native hash path == hash_tokens(_doc_tokens(...)) per row,
    on BOTH branches: the extra_rules fallback and the fast path (empty
    rows, stop tokens, comments, non-ASCII)."""
    import numpy as np
    import pyarrow as pa

    from localhost_address_matching_ray.config import LangConfig, PipelineConfig
    from localhost_address_matching_ray.stages.feature_stage import FeatureExtractor

    contents = [
        "def f():  # comment\n    return v12",
        "int a; // tail v3\n/* block */ int b;",
        "plain text v9 end",
        "",
        "x\xa0y v1",
        "# only a comment",
        "stopword alpha stopword beta",
    ]
    langs = ["python", "c", "zz", "python", "javascript", "python", "zz"]
    for cfg in (
        PipelineConfig(),
        PipelineConfig(extra_rules=((r"v\d+", "vN"),)),
        PipelineConfig(lang_configs={
            **PipelineConfig().lang_configs,
            "zz": LangConfig(lang="zz", stop_tokens=("stopword",)),
        }),
    ):
        fx = FeatureExtractor(cfg)
        got = fx._batch_token_hashes(pa.array(contents, pa.string()), langs)
        want = [
            fx.token_hasher.hash_tokens(fx._doc_tokens(c, lg))
            for c, lg in zip(contents, langs)
        ]
        for g, w in zip(got, want):
            assert g.dtype == np.uint64
            assert np.array_equal(g, w)

"""Multimodal columns: opaque ``binary`` payloads + typed metadata.

Decoding: each modality's dependency-free interchange format is decoded
FOR REAL in pure numpy — header parse + buffer reshape, no codec library:

- images: netpbm P5 (grayscale) / P6 (RGB), PNG (stdlib zlib + numpy
  unfiltering, ``functions/png.py``) and baseline JPEG (pure
  Huffman+DCT decode, ``functions/jpeg.py``) → genuine image features
  (dimensions, channel means/std, a coarse 3×3 luminance grid)
- audio: RIFF/WAVE PCM (8/16-bit, any channel count) → genuine audio
  features (duration, RMS, peak, zero-crossing rate, spectral band
  energies, an 8-segment envelope)
- video: YUV4MPEG2 (y4m, the uncompressed ffmpeg/mjpegtools interchange
  stream) → real luma frames; frame sampling emits each sampled frame as
  a P5 netpbm image, so video → frames → image features composes through
  the REAL paths end to end

Formats that need external codecs (MP3/H.264/progressive JPEG —
libraries absent in this container) raise ``NotImplementedError`` and a deterministic
sha256-derived fake stands in, keeping the Ray-side plumbing (schema,
small batches for wide binary rows, output layout) real and tested either
way. The stages run as stateless tasks: their classes hold only
constructor flags, so an instance is passed to ``map_batches``. Mirrors
the reference's NER stage shape of small batches for wide rows
(``chunk 5000 / batch 32``, ``ner_address_parser.py:161-162``).
"""

from __future__ import annotations

import hashlib

import numpy as np
import pyarrow as pa
import ray.data

from localhost_address_matching_ray.functions.jpeg import decode_jpeg, encode_jpeg
from localhost_address_matching_ray.functions.png import PNG_SIG, decode_png, encode_png

#: Wide binary rows need small batches so batch × concurrency fits the heap
#: (ray_guide: "large binary payloads need small batches").
MULTIMODAL_BATCH_SIZE = 64

MEDIA_SCHEMA = pa.schema([
    ("media_id", pa.int64()),
    ("kind", pa.string()),           # image | audio | video
    ("payload", pa.large_binary()),  # opaque encoded bytes
    ("width", pa.int32()),           # typed metadata travels beside the blob
    ("height", pa.int32()),
    ("sample_rate", pa.int32()),
])


def decode_netpbm(payload: bytes) -> np.ndarray:
    """Pure-numpy decoder for binary netpbm images: P5 (grayscale) →
    (h, w) uint8, P6 (RGB) → (h, w, 3) uint8. Raises ValueError on
    malformed input."""
    if payload[:2] not in (b"P5", b"P6"):
        raise ValueError("not a binary netpbm payload")
    # header: magic, width, height, maxval — whitespace/comment separated
    tokens: list[bytes] = []
    i = 2
    while len(tokens) < 3 and i < len(payload):
        c = payload[i : i + 1]
        if c == b"#":  # comment to end of line
            while i < len(payload) and payload[i : i + 1] != b"\n":
                i += 1
        elif c.isspace():
            i += 1
        else:
            j = i
            while j < len(payload) and not payload[j : j + 1].isspace():
                j += 1
            tokens.append(payload[i:j])
            i = j
    i += 1  # single whitespace after maxval
    w, h, maxval = (int(t) for t in tokens)
    if maxval > 255:
        raise ValueError("16-bit netpbm not supported")
    channels = 3 if payload[:2] == b"P6" else 1
    data = np.frombuffer(payload, dtype=np.uint8, count=w * h * channels, offset=i)
    return data.reshape((h, w, 3)) if channels == 3 else data.reshape((h, w))


def encode_netpbm(img: np.ndarray) -> bytes:
    """Inverse of :func:`decode_netpbm` (tests + fixture synthesis)."""
    if img.ndim == 3:
        header = f"P6\n{img.shape[1]} {img.shape[0]}\n255\n".encode()
    else:
        header = f"P5\n{img.shape[1]} {img.shape[0]}\n255\n".encode()
    return header + np.ascontiguousarray(img, dtype=np.uint8).tobytes()


def image_features(img: np.ndarray) -> np.ndarray:
    """16-dim image feature vector: [h, w, mean, std, per-channel means (3),
    coarse 3×3 luminance grid (9)] — all float32, deterministic."""
    if img.ndim == 2:
        img = img[:, :, None]
    h, w, c = img.shape
    lum = img.mean(axis=2)
    grid = np.empty(9, dtype=np.float32)
    ys = np.linspace(0, h, 4).astype(int)
    xs = np.linspace(0, w, 4).astype(int)
    for r in range(3):
        for cc in range(3):
            cell = lum[ys[r]:max(ys[r + 1], ys[r] + 1), xs[cc]:max(xs[cc + 1], xs[cc] + 1)]
            grid[r * 3 + cc] = float(cell.mean()) if cell.size else 0.0
    chan_means = [float(img[:, :, i].mean()) for i in range(min(c, 3))]
    chan_means += [0.0] * (3 - len(chan_means))
    return np.array(
        [h, w, float(img.mean()), float(img.std())] + chan_means + grid.tolist(),
        dtype=np.float32,
    ) / np.float32(255.0)


def decode_wav(payload: bytes) -> tuple[np.ndarray, int]:
    """Pure-numpy RIFF/WAVE PCM decoder → ``(samples, sample_rate)`` with
    samples float32 in [-1, 1] shaped ``(n_frames, channels)``. Supports
    the uncompressed interchange encodings (PCM 8-bit unsigned / 16-bit
    signed LE, any channel count); compressed WAVs raise
    NotImplementedError, malformed payloads ValueError."""
    if payload[:4] != b"RIFF" or payload[8:12] != b"WAVE":
        raise ValueError("not a RIFF/WAVE payload")
    fmt = data = None
    i = 12
    while i + 8 <= len(payload):
        cid = payload[i : i + 4]
        size = int.from_bytes(payload[i + 4 : i + 8], "little")
        body = payload[i + 8 : i + 8 + size]
        if cid == b"fmt ":
            fmt = body
        elif cid == b"data":
            data = body
        i += 8 + size + (size & 1)  # RIFF chunks are word-aligned
    if fmt is None or len(fmt) < 16 or data is None:
        raise ValueError("missing fmt/data chunk")
    audio_format = int.from_bytes(fmt[0:2], "little")
    channels = max(1, int.from_bytes(fmt[2:4], "little"))
    rate = int.from_bytes(fmt[4:8], "little")
    bits = int.from_bytes(fmt[14:16], "little")
    if audio_format != 1:
        raise NotImplementedError(
            f"WAVE format tag {audio_format} needs a codec; only PCM (1) "
            "decodes natively"
        )
    if bits == 16:
        n = (len(data) // (2 * channels)) * channels
        x = np.frombuffer(data, dtype="<i2", count=n).astype(np.float32)
        x /= np.float32(32768.0)
    elif bits == 8:  # 8-bit WAV PCM is unsigned, midpoint 128
        n = (len(data) // channels) * channels
        x = np.frombuffer(data, dtype=np.uint8, count=n).astype(np.float32)
        x = (x - np.float32(128.0)) / np.float32(128.0)
    else:
        raise ValueError(f"unsupported PCM bit depth {bits}")
    return x.reshape(-1, channels), rate


def encode_wav(samples: np.ndarray, sample_rate: int) -> bytes:
    """Inverse of :func:`decode_wav` (16-bit PCM; tests + fixture
    synthesis). ``samples``: float32 in [-1, 1], ``(n,)`` or ``(n, c)``."""
    x = np.asarray(samples, dtype=np.float32)
    if x.ndim == 1:
        x = x[:, None]
    channels = x.shape[1]
    pcm = np.clip(np.rint(x * 32767.0), -32768, 32767).astype("<i2")
    data = pcm.tobytes()
    block = 2 * channels
    fmt = (
        (1).to_bytes(2, "little") + channels.to_bytes(2, "little")
        + sample_rate.to_bytes(4, "little")
        + (sample_rate * block).to_bytes(4, "little")
        + block.to_bytes(2, "little") + (16).to_bytes(2, "little")
    )
    chunks = b"fmt " + len(fmt).to_bytes(4, "little") + fmt
    chunks += b"data" + len(data).to_bytes(4, "little") + data
    return b"RIFF" + (4 + len(chunks)).to_bytes(4, "little") + b"WAVE" + chunks


def audio_features(samples: np.ndarray, sample_rate: int) -> np.ndarray:
    """16-dim audio feature vector: [duration_sec, channels, rms, peak,
    zero-crossing rate, 3 spectral band-energy fractions (low/mid/high
    thirds of the rFFT power), 8-segment |amplitude| envelope] — float32,
    deterministic."""
    if samples.ndim == 1:
        samples = samples[:, None]
    n, c = samples.shape
    out = np.zeros(16, dtype=np.float32)
    out[1] = c
    if n == 0 or sample_rate <= 0:
        return out
    mono = samples.mean(axis=1)
    out[0] = n / sample_rate
    out[2] = float(np.sqrt(np.mean(mono * mono)))
    out[3] = float(np.abs(mono).max())
    out[4] = float(np.count_nonzero(np.signbit(mono[1:]) != np.signbit(mono[:-1]))) / n
    power = np.abs(np.fft.rfft(mono.astype(np.float64))) ** 2
    total = power.sum()
    if total > 0 and len(power) >= 3:
        thirds = np.array_split(power, 3)
        out[5:8] = [b.sum() / total for b in thirds]
    ends = (np.arange(9) * n) // 8
    for s in range(8):
        seg = mono[ends[s] : max(ends[s + 1], ends[s] + 1)]
        out[8 + s] = float(np.abs(seg).mean())
    return out


def decode_y4m(payload: bytes) -> tuple[np.ndarray, tuple[int, int]]:
    """Pure-numpy YUV4MPEG2 decoder → ``(luma_frames, fps)`` with
    ``luma_frames`` uint8 shaped ``(n_frames, h, w)`` (the Y plane — the
    part every colorspace variant shares; chroma is skipped) and ``fps``
    the ``(num, den)`` rational. Supports C420*/C422/C444/Cmono streams;
    malformed payloads raise ValueError."""
    if not payload.startswith(b"YUV4MPEG2"):
        raise ValueError("not a YUV4MPEG2 payload")
    nl = payload.index(b"\n")
    w = h = 0
    fps = (30, 1)
    cspace = "420"
    for tok in payload[9:nl].split():
        t = tok.decode("ascii", "replace")
        if t[:1] == "W":
            w = int(t[1:])
        elif t[:1] == "H":
            h = int(t[1:])
        elif t[:1] == "F":
            num, den = t[1:].split(":")
            fps = (int(num), int(den))
        elif t[:1] == "C":
            cspace = t[1:]
    if w <= 0 or h <= 0:
        raise ValueError("y4m header missing W/H")
    if cspace.startswith("420"):
        frame_size = w * h + 2 * ((w // 2) * (h // 2))
    elif cspace.startswith("422"):
        frame_size = w * h + 2 * ((w // 2) * h)
    elif cspace.startswith("444"):
        frame_size = 3 * w * h
    elif cspace.startswith("mono"):
        frame_size = w * h
    else:
        raise ValueError(f"unsupported y4m colorspace C{cspace}")
    frames = []
    i = nl + 1
    while i < len(payload):
        j = payload.index(b"\n", i)
        if payload[i : i + 5] != b"FRAME":
            raise ValueError("malformed y4m FRAME marker")
        i = j + 1
        if i + w * h > len(payload):
            raise ValueError("truncated y4m frame")
        frames.append(
            np.frombuffer(payload, np.uint8, count=w * h, offset=i).reshape(h, w)
        )
        i += frame_size
    luma = np.stack(frames) if frames else np.zeros((0, h, w), np.uint8)
    return luma, fps


def encode_y4m(luma_frames: np.ndarray, fps: tuple[int, int] = (25, 1)) -> bytes:
    """Inverse of :func:`decode_y4m` for the luma plane (C420, flat
    mid-gray chroma; tests + fixture synthesis)."""
    n, h, w = luma_frames.shape
    header = f"YUV4MPEG2 W{w} H{h} F{fps[0]}:{fps[1]} Ip A1:1 C420\n".encode()
    chroma = np.full(2 * ((w // 2) * (h // 2)), 128, np.uint8).tobytes()
    parts = [header]
    for f in range(n):
        parts.append(b"FRAME\n")
        parts.append(np.ascontiguousarray(luma_frames[f], dtype=np.uint8).tobytes())
        parts.append(chroma)
    return b"".join(parts)


def video_features(luma_frames: np.ndarray, fps: tuple[int, int]) -> np.ndarray:
    """16-dim video feature vector: [n_frames, h, w, fps, mean luma/255,
    std luma/255, mean |inter-frame diff|/255, mean-frame 3×3 luminance
    grid (9, /255)] — float32, deterministic."""
    n, h, w = luma_frames.shape
    out = np.zeros(16, dtype=np.float32)
    out[0], out[1], out[2] = n, h, w
    out[3] = fps[0] / max(fps[1], 1)
    if n == 0:
        return out
    x = luma_frames.astype(np.float32)
    out[4] = float(x.mean()) / 255.0
    out[5] = float(x.std()) / 255.0
    if n > 1:
        out[6] = float(np.abs(np.diff(x, axis=0)).mean()) / 255.0
    # the mean frame's coarse 3×3 grid, via the image kernel (indices 7..15
    # of image_features are the grid, already /255)
    out[7:16] = image_features(x.mean(axis=0).astype(np.uint8))[7:16]
    return out


def real_decode(payload: bytes, kind: str) -> np.ndarray:
    """Decode + feature-extract. Real for the dependency-free interchange
    formats (netpbm/PNG/baseline-JPEG images, PCM WAV audio, y4m video);
    formats needing external codecs (MP3/H.264) raise — the deterministic fake
    stands in for those in tests."""
    if kind == "image" and payload[:2] in (b"P5", b"P6"):
        return image_features(decode_netpbm(payload))
    if kind == "image" and payload[:8] == PNG_SIG:
        # real compressed-codec path: stdlib zlib inflate + numpy unfilter
        # (functions/png.py); alpha dropped for the feature kernel
        img = decode_png(payload)
        if img.ndim == 3 and img.shape[2] in (2, 4):
            img = img[:, :, :-1]
        return image_features(img)
    if kind == "image" and payload[:2] == b"\xFF\xD8":
        # baseline JPEG — real Huffman+DCT decode (functions/jpeg.py)
        return image_features(decode_jpeg(payload))
    if kind == "audio" and payload[:4] == b"RIFF":
        return audio_features(*decode_wav(payload))
    if kind == "video" and payload[:9] == b"YUV4MPEG2":
        return video_features(*decode_y4m(payload))
    raise NotImplementedError(
        f"decoding kind={kind!r} needs codec libraries not present in this "
        "container (netpbm/PNG/JPEG images, PCM WAV audio and y4m video decode "
        "natively); the deterministic fake stands in for tests"
    )


class MediaFeatureExtractor:
    """Stateless-task stage: decode → feature-extract per batch.

    The instance holds only its constructor flag, so the pipeline passes an
    instance to ``map_batches`` and each batch runs as a plain task. The
    deterministic fake derives a stable 16-dim feature vector from
    sha256(payload), so tests exercise schema, batching and layout
    end-to-end.
    """

    def __init__(self, use_real_decoder: bool = False) -> None:
        self.use_real = use_real_decoder

    def _features(self, payload: bytes, kind: str) -> np.ndarray:
        # real decode paths: the dependency-free interchange format of each
        # modality (netpbm / PCM WAV / y4m). Corrupt payloads in one of
        # those formats fall through to the deterministic fake in the
        # default mode and raise in use_real mode (the honest boundary).
        try:
            return real_decode(payload, kind)
        except NotImplementedError:
            if self.use_real:
                raise  # codec formats: no native decode exists
        except ValueError:
            if self.use_real:
                raise  # corrupt interchange payload: fail loudly
        digest = hashlib.sha256(payload).digest()
        return np.frombuffer(digest[:16], dtype=np.uint8).astype(np.float32) / 255.0

    def __call__(self, batch: pa.Table) -> pa.Table:
        feats = np.stack([
            self._features(p, k)
            for p, k in zip(batch["payload"].to_pylist(), batch["kind"].to_pylist())
        ]) if batch.num_rows else np.zeros((0, 16), np.float32)
        return pa.table({
            "media_id": batch["media_id"],
            "kind": batch["kind"],
            "n_bytes": pa.array(
                [len(p) for p in batch["payload"].to_pylist()], pa.int64()
            ),
            "features": pa.FixedSizeListArray.from_arrays(
                pa.array(feats.ravel(), pa.float32()), 16
            ),
        })


def extract_media_features(media: ray.data.Dataset) -> ray.data.Dataset:
    """The multimodal feature pipeline: content column dropped immediately
    after feature extraction (wide rows must not ride further stages)."""
    return media.map_batches(
        MediaFeatureExtractor(), batch_format="pyarrow", batch_size=MULTIMODAL_BATCH_SIZE,
    )


def resize_image(img: np.ndarray, out_h: int, out_w: int) -> np.ndarray:
    """Nearest-neighbor resize in pure numpy (index gather — deterministic,
    no interpolation library needed)."""
    h, w = img.shape[:2]
    ys = (np.arange(out_h) * h) // out_h
    xs = (np.arange(out_w) * w) // out_w
    return img[ys][:, xs]


class MediaResizer:
    """Stateless-task resize stage: netpbm images are decoded, nearest-neighbor
    resized and re-encoded FOR REAL; other kinds/formats pass through
    unchanged (``strict=True`` raises instead — the honest boundary for
    codec formats this container cannot decode). Output keeps the
    MEDIA_SCHEMA layout with width/height metadata updated beside the
    payload, so downstream stages never re-measure the blob."""

    def __init__(self, out_w: int, out_h: int, strict: bool = False) -> None:
        self.out_w, self.out_h, self.strict = out_w, out_h, strict

    def __call__(self, batch: pa.Table) -> pa.Table:
        payloads = batch["payload"].to_pylist()
        kinds = batch["kind"].to_pylist()
        widths = batch["width"].to_pylist()
        heights = batch["height"].to_pylist()
        for i, (p, k) in enumerate(zip(payloads, kinds)):
            if k == "image" and p[:2] in (b"P5", b"P6"):
                payloads[i] = encode_netpbm(
                    resize_image(decode_netpbm(p), self.out_h, self.out_w)
                )
                widths[i], heights[i] = self.out_w, self.out_h
            elif k == "image" and p[:8] == PNG_SIG:
                # PNG round-trips through the stdlib codec; format preserved
                payloads[i] = encode_png(
                    resize_image(decode_png(p), self.out_h, self.out_w)
                )
                widths[i], heights[i] = self.out_w, self.out_h
            elif k == "image" and p[:2] == b"\xFF\xD8":
                # JPEG round-trips through the baseline codec
                payloads[i] = encode_jpeg(
                    resize_image(decode_jpeg(p), self.out_h, self.out_w)
                )
                widths[i], heights[i] = self.out_w, self.out_h
            elif self.strict:
                raise NotImplementedError(
                    f"resize of kind={k!r} needs codec libraries not present "
                    "in this container (netpbm/PNG/JPEG images resize natively)"
                )
        out = batch.set_column(
            batch.schema.get_field_index("payload"), "payload",
            pa.array(payloads, pa.large_binary()),
        )
        out = out.set_column(
            out.schema.get_field_index("width"), "width",
            pa.array(widths, pa.int32()),
        )
        return out.set_column(
            out.schema.get_field_index("height"), "height",
            pa.array(heights, pa.int32()),
        )


def resize_media(media: ray.data.Dataset, out_w: int, out_h: int) -> ray.data.Dataset:
    """Resize pipeline stage — same stateless-task / small-batch shape as
    :func:`extract_media_features` (wide binary rows)."""
    return media.map_batches(
        MediaResizer(out_w, out_h), batch_format="pyarrow",
        batch_size=MULTIMODAL_BATCH_SIZE,
    )


FRAME_SCHEMA = pa.schema([
    ("media_id", pa.int64()),
    ("frame_idx", pa.int64()),
    ("frame", pa.large_binary()),
])


class FrameSampler:
    """One→many frame-sampling stage for video rows: evenly-spaced frame
    indices, one output row per sampled frame. y4m streams decode FOR REAL
    — each sampled frame is emitted as a P5 netpbm grayscale image (the
    luma plane), so the frame stream feeds straight back into the REAL
    image stages (resize / image_features). Codec video stays honestly
    stubbed (``strict=True`` raises; default derives a deterministic
    sha256 stand-in per frame) — either way the Ray-side plumbing that
    matters at scale (row expansion inside map_batches, small batches for
    wide rows, narrow typed output schema) is real and tested."""

    def __init__(self, n_frames: int, strict: bool = False) -> None:
        self.n_frames, self.strict = n_frames, strict

    def _picks(self, total: int) -> list[int]:
        return np.unique(
            (np.arange(self.n_frames) * total) // max(self.n_frames, 1)
        ).tolist()

    def __call__(self, batch: pa.Table) -> pa.Table:
        ids, idxs, frames = [], [], []
        for mid, kind, payload in zip(
            batch["media_id"].to_pylist(),
            batch["kind"].to_pylist(),
            batch["payload"].to_pylist(),
        ):
            if kind != "video":
                continue
            if payload[:9] == b"YUV4MPEG2":
                luma, _ = decode_y4m(payload)  # REAL decode
                if len(luma) == 0:
                    continue
                for fi in self._picks(len(luma)):
                    ids.append(mid)
                    idxs.append(fi)
                    frames.append(encode_netpbm(luma[fi]))
                continue
            if self.strict:
                raise NotImplementedError(
                    "codec video frame decode needs libraries not present in "
                    "this container (y4m streams decode natively); the "
                    "deterministic stand-in covers tests"
                )
            total = max(1, len(payload) // 64)  # stand-in frame count
            for fi in self._picks(total):
                ids.append(mid)
                idxs.append(fi)
                frames.append(
                    hashlib.sha256(payload + fi.to_bytes(8, "big")).digest()
                )
        return pa.table({
            "media_id": pa.array(ids, pa.int64()),
            "frame_idx": pa.array(idxs, pa.int64()),
            "frame": pa.array(frames, pa.large_binary()),
        })


def sample_frames(media: ray.data.Dataset, n_frames: int = 4) -> ray.data.Dataset:
    """Frame-sampling pipeline stage (video rows → frame rows), run as
    stateless tasks like :func:`extract_media_features`."""
    return media.map_batches(
        FrameSampler(n_frames), batch_format="pyarrow", batch_size=MULTIMODAL_BATCH_SIZE,
    )


def synthesize_media_table(docs: pa.Table) -> pa.Table:
    """Deterministic media derived from the documents table (no external
    data), seeded by sha256(text) per row. Most rows carry REAL payloads
    in each modality's interchange format — P6 netpbm 16×12 images, PCM16
    WAV audio (512 samples @ 16 kHz), 5-frame 16×12 y4m video — so the
    stages' real decode paths run on them; every 5th audio/video row
    carries opaque utf-8 bytes standing in for a codec format, keeping the
    fake/stub branch exercised too."""
    kinds = ["image", "audio", "video"]
    doc_ids = docs["doc_id"].to_pylist()
    texts = docs["text"].to_pylist()
    payloads, widths, heights, rates = [], [], [], []
    for d, t in zip(doc_ids, texts):
        seed = hashlib.sha256(t.encode("utf-8")).digest()
        kind = kinds[d % 3]
        if kind == "image":
            img = np.frombuffer((seed * ((16 * 12 * 3) // 32 + 1)), dtype=np.uint8)
            img = img[: 16 * 12 * 3].reshape(12, 16, 3)
            if d % 6 == 0:
                # every other image row is a REAL compressed PNG (stdlib
                # zlib codec), cycling through all five scanline filters
                payloads.append(encode_png(img, filter_type=(d // 6) % 5))
            elif d % 6 == 3:
                # and a third of the rest are REAL baseline JPEGs
                payloads.append(encode_jpeg(img, quality=90))
            else:
                payloads.append(encode_netpbm(img))
            widths.append(16); heights.append(12); rates.append(0)
        elif kind == "audio" and d % 15 != 1:  # REAL PCM WAV
            freq = 200.0 + seed[0] * 4
            n = 512
            x = 0.45 * np.sin(
                2.0 * np.pi * freq * np.arange(n, dtype=np.float64) / 16000.0
            )
            payloads.append(encode_wav(x.astype(np.float32), 16000))
            widths.append(0); heights.append(0); rates.append(16000)
        elif kind == "video" and d % 15 != 2:  # REAL y4m
            n_frames, h, w = 5, 12, 16
            base = np.frombuffer(
                seed * ((h * w) // 32 + 1), dtype=np.uint8
            )[: h * w].reshape(h, w)
            # per-frame deterministic motion: roll the pattern by the index
            luma = np.stack([np.roll(base, f, axis=1) for f in range(n_frames)])
            payloads.append(encode_y4m(luma, fps=(25, 1)))
            widths.append(w); heights.append(h); rates.append(0)
        else:  # codec stand-in: opaque bytes, fake-path metadata
            payloads.append(t.encode("utf-8"))
            widths.append((d * 7) % 1920 + 1)
            heights.append((d * 13) % 1080 + 1)
            rates.append(16000 if kind == "audio" else 0)
    return pa.table({
        "media_id": pa.array(doc_ids, pa.int64()),
        "kind": pa.array([kinds[d % 3] for d in doc_ids], pa.string()),
        "payload": pa.array(payloads, pa.large_binary()),
        "width": pa.array(widths, pa.int32()),
        "height": pa.array(heights, pa.int32()),
        "sample_rate": pa.array(rates, pa.int32()),
    })

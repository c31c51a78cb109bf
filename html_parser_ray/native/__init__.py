"""Optional native (C) kernels: HTML text-block extraction and PDF summary.

``get_native_extractor()`` returns ``extract_blocks_native(source,
drop_whitespace_text=False, max_link_density=0.5, min_text_len=1) ->
list[bytes] | None`` and ``get_native_batch_extractor()`` the one-call-per-
batch twin; ``get_native_pdf_summary()`` returns ``pdf_layout_batch(payloads)
-> list[tuple | None]``, one C call for a list of PDF payloads giving per
payload ``(num_pages, n_text_spans, n_rects, joined span text)`` or None for
a payload the pure parser must take. All are None when unavailable. Each
shared library compiles on first use from the in-repo C source with the
system compiler (cached under the per-user ``~/.cache/hpr_native`` keyed by
a source hash, ownership-checked before loading); ANY failure — no
compiler, compile error, load error — yields None and extraction runs on
the DOM oracle path (``parse_html`` + ``extract_text_blocks``) or the pure
PDF parser, so the engine never depends on a toolchain. Set
``GRAFT_DISABLE_NATIVE=1`` to force the DOM path.

The HTML kernel uses the default ExtractConfig's tag tables and class/id
markers and takes the two scalar thresholds as arguments; configs with other
``drop_tags`` or class markers run on the DOM path. Byte-parity with the DOM
oracle is pinned by tests/test_native_parity.py, tests/test_fused_parity.py,
tests/test_tag_table_parity.py and tests/test_extraction_hypothesis.py; the
PDF kernel's parity with the pure parser by tests/test_pdf_native_parity.py
and tests/test_layout_json_hypothesis.py.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import subprocess
import sys
import threading

_C_SOURCE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "fused_extract.c")

_lock = threading.Lock()
_cached = False
_fn = None


def _cpu_tag() -> str:
    """Stable fingerprint of this host's CPU feature set (the ISA the
    -march=native build targets)."""
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith(("flags", "Features")):
                    return hashlib.sha256(line.encode()).hexdigest()[:8]
    except OSError:
        pass
    import platform

    return hashlib.sha256(platform.machine().encode()).hexdigest()[:8]


def _compile_and_load(
    src_path: str, prefix: str, link_flags: "list[str]"
) -> "ctypes.CDLL | None":
    """Compile-on-first-use loader shared by the fused-extract and
    pdf-summary kernels (cache keying, ownership checks, flag fallbacks)."""
    if os.environ.get("GRAFT_DISABLE_NATIVE"):
        return None
    try:
        with open(src_path, "rb") as f:
            src = f.read()
    except OSError:
        return None
    tag = hashlib.sha256(src).hexdigest()[:16]
    # the binary is tuned for THIS host's ISA (-march=native measured +8-17%
    # over plain -O3), so the cache key includes the CPU feature set: on a
    # cluster where ~ is shared NFS, a newer node's AVX-512 build must never
    # be loaded by an older node (SIGILL) — different flags, different file
    tag += "_" + _cpu_tag()
    # per-user cache dir with 0700 perms: a world-writable shared /tmp path
    # with a predictable name would let another local user pre-plant a
    # malicious .so (the source is public, so the hash is computable)
    cache_dir = os.path.join(
        os.path.expanduser("~"), ".cache", "hpr_native"
    )
    try:
        os.makedirs(cache_dir, mode=0o700, exist_ok=True)
    except OSError:
        return None
    so_path = os.path.join(
        cache_dir, f"{prefix}_{tag}_py{sys.version_info[0]}{sys.version_info[1]}.so"
    )

    def _owned_by_us(path: str) -> bool:
        try:
            st = os.stat(path)
        except OSError:
            return False
        return st.st_uid == os.getuid()

    if os.path.exists(so_path) and not _owned_by_us(so_path):
        return None
    if not os.path.exists(so_path):
        # -march=native first (flag sweep: tag-dense 165->193 MB/s, text
        # 591->637 single-core); plain -O3 when the toolchain rejects it
        built = False
        for flags in (["-O3", "-march=native"], ["-O3"]):
            for cc in ("gcc", "cc", "clang"):
                try:
                    tmp = so_path + f".build{os.getpid()}"
                    r = subprocess.run(
                        [cc, *flags, "-shared", "-fPIC", "-o", tmp, src_path,
                         *link_flags],
                        capture_output=True,
                        timeout=120,
                    )
                    if r.returncode == 0:
                        os.replace(tmp, so_path)  # atomic vs concurrent builders
                        built = True
                        break
                except (OSError, subprocess.SubprocessError):
                    continue
            if built:
                break
        if not built:
            return None
    if not _owned_by_us(so_path):
        return None
    try:
        return ctypes.CDLL(so_path)
    except OSError:
        return None


def _build_lib():
    lib = _compile_and_load(_C_SOURCE, "hpr_fused", [])
    if lib is None:
        return None
    fn = lib.hpr_extract_blocks
    fn.restype = ctypes.c_int64
    fn.argtypes = [
        ctypes.c_char_p,
        ctypes.c_int64,
        ctypes.c_int,
        ctypes.c_void_p,
        ctypes.c_int64,
        ctypes.POINTER(ctypes.c_int64),
        ctypes.c_int64,
        ctypes.POINTER(ctypes.c_int64),
        ctypes.c_double,  # max_link_density
        ctypes.c_double,  # min_text_len
    ]
    bfn = lib.hpr_extract_blocks_batch
    bfn.restype = ctypes.c_int64
    bfn.argtypes = [
        ctypes.c_void_p,  # values
        ctypes.c_void_p,  # int64 offsets
        ctypes.c_int64,   # n_docs
        ctypes.c_int,     # drop_ws
        ctypes.c_void_p,  # out
        ctypes.c_int64,   # out_cap
        ctypes.c_void_p,  # block_lens (int64*)
        ctypes.c_int64,   # lens_cap
        ctypes.c_void_p,  # doc_nblocks (int64*)
        ctypes.POINTER(ctypes.c_int64),
        ctypes.c_double,  # max_link_density
        ctypes.c_double,  # min_text_len
    ]
    return fn, bfn


def _make_wrapper(fn):
    c_int64 = ctypes.c_int64
    string_at = ctypes.string_at
    local = threading.local()

    def extract_blocks_native(
        source: bytes,
        drop_whitespace_text: bool = False,
        max_link_density: float = 0.5,
        min_text_len: int = 1,
    ) -> "list[bytes] | None":
        """Blocks for ``source`` under the default tag tables and the given
        thresholds, or None if the native call reports a capacity/internal
        error (the caller extracts on the DOM path).

        Scratch buffers are thread-local and grow-only: per-call allocation
        dominated small-document throughput otherwise (~25us -> ~4us/call)."""
        n = len(source)
        out_cap = getattr(local, "out_cap", 0)
        if out_cap < n + 16:
            out_cap = max(1 << 16, (n + 16) * 2)
            local.out = ctypes.create_string_buffer(out_cap)
            local.out_cap = out_cap
        lens_cap = getattr(local, "lens_cap", 0)
        need_lens = max(64, n // 4 + 8)
        if lens_cap < need_lens:
            lens_cap = max(1024, need_lens * 2)
            local.lens = (c_int64 * lens_cap)()
            local.lens_cap = lens_cap
        out = local.out
        lens = local.lens
        n_blocks = c_int64(0)
        rc = fn(
            source,
            n,
            1 if drop_whitespace_text else 0,
            out,
            local.out_cap,
            lens,
            local.lens_cap,
            ctypes.byref(n_blocks),
            max_link_density,
            min_text_len,
        )
        if rc != 0:
            return None
        blocks: list[bytes] = []
        off = 0
        base = ctypes.addressof(out)
        for k in range(n_blocks.value):
            ln = lens[k]
            blocks.append(string_at(base + off, ln))
            off += ln
        return blocks

    return extract_blocks_native


def _make_batch_wrapper(bfn):
    import numpy as np

    c_int64 = ctypes.c_int64
    local = threading.local()

    def extract_blocks_batched(
        values_addr, offsets_np, total_bytes, drop_ws,
        max_link_density=0.5, min_text_len=1,
    ):
        """One C call for a whole batch of documents.

        ``values_addr``: address of the contiguous UTF-8 values buffer (the
        Arrow binary-array data buffer); ``offsets_np``: int64 numpy array of
        n_docs+1 absolute offsets into it. Returns
        (out_memoryview, block_lens_np, doc_nblocks_np) or None on error
        (the caller extracts the batch on the DOM path)."""
        n_docs = len(offsets_np) - 1
        out_cap = int(total_bytes) + 16
        if getattr(local, "out_cap", 0) < out_cap:
            local.out = ctypes.create_string_buffer(max(1 << 20, out_cap * 2))
            local.out_cap = len(local.out)
        lens_cap = max(4096, int(total_bytes) // 8 + n_docs + 8)
        if getattr(local, "lens_cap", 0) < lens_cap:
            local.lens = np.empty(max(1 << 14, lens_cap * 2), dtype=np.int64)
            local.lens_cap = len(local.lens)
        if getattr(local, "docs_cap", 0) < n_docs:
            local.docs = np.empty(max(1024, n_docs * 2), dtype=np.int64)
            local.docs_cap = len(local.docs)
        out = local.out
        lens = local.lens
        docs = local.docs
        n_total = c_int64(0)
        rc = bfn(
            values_addr,
            offsets_np.ctypes.data,
            n_docs,
            1 if drop_ws else 0,
            ctypes.addressof(out),
            local.out_cap,
            lens.ctypes.data,
            local.lens_cap,
            docs.ctypes.data,
            ctypes.byref(n_total),
            max_link_density,
            min_text_len,
        )
        if rc != 0:
            return None
        nt = n_total.value
        return memoryview(out), lens[:nt].copy(), docs[:n_docs].copy()

    return extract_blocks_batched


def get_native_extractor():
    """Compiled per-document extractor callable or None (thread-safe, cached)."""
    _ensure_built()
    return _fn


def get_native_batch_extractor():
    """Compiled batched extractor callable or None."""
    _ensure_built()
    return _bfn


_bfn = None


def _ensure_built():
    global _cached, _fn, _bfn
    if _cached:
        return
    with _lock:
        if not _cached:
            built = _build_lib()
            if built is not None:
                fn, bfn = built
                _fn = _make_wrapper(fn)
                _bfn = _make_batch_wrapper(bfn)
            else:
                _fn = None
                _bfn = None
            _cached = True


# ---- PDF layout-summary kernel (pdf_summary.c, links zlib) -----------------

_PDF_C_SOURCE = os.path.join(
    os.path.dirname(os.path.abspath(__file__)), "pdf_summary.c"
)
_pdf_cached = False
_pdf_fn = None


def _make_pdf_wrapper(fn):
    import numpy as np

    local = threading.local()

    def pdf_layout_batch(payloads: "list[bytes]") -> list:
        """Per payload, ``(num_pages, n_text_spans, n_rects, text)`` for a
        well-formed PDF, ``text`` being its span texts joined with ``b"\\n"``,
        or None on any structural surprise (the caller runs the pure parser
        for that payload, which also owns every error message). One C call
        for the whole list; the text scratch is thread-local grow-only, and
        the kernel's -2 capacity code grows it and retries."""
        n = len(payloads)
        blob = b"".join(payloads)
        offsets = np.zeros(n + 1, dtype=np.int64)
        np.cumsum([len(p) for p in payloads], out=offsets[1:])
        # span text is mostly shorter than its payload; a flate stream that
        # inflates past this takes the -2 retry below
        need = len(blob) * 2 + 1024
        if getattr(local, "text_cap", 0) < need:
            local.text_cap = max(1 << 16, need * 2)
            local.text = ctypes.create_string_buffer(local.text_cap)
        text_offs = np.empty(n + 1, dtype=np.int64)
        meta = np.empty((n, 4), dtype=np.int64)
        while fn(
            blob, offsets.ctypes.data, n, local.text, local.text_cap,
            text_offs.ctypes.data, meta.ctypes.data,
        ) == -2:
            local.text_cap *= 2
            local.text = ctypes.create_string_buffer(local.text_cap)
        text = ctypes.string_at(local.text, int(text_offs[n]))
        bounds = text_offs.tolist()
        return [
            (m[1], m[2], m[3], text[bounds[i] : bounds[i + 1]]) if m[0] else None
            for i, m in enumerate(meta.tolist())
        ]

    return pdf_layout_batch


def get_native_pdf_summary():
    """Compiled batch PDF layout callable (``pdf_layout_batch`` above) or
    None (thread-safe, cached)."""
    global _pdf_cached, _pdf_fn
    if _pdf_cached:
        return _pdf_fn
    with _lock:
        if not _pdf_cached:
            lib = _compile_and_load(_PDF_C_SOURCE, "hpr_pdfsum", ["-lz"])
            if lib is not None:
                fn = lib.hpr_pdf_layout_batch
                fn.restype = ctypes.c_int64
                fn.argtypes = [
                    ctypes.c_char_p,  # blob: the payloads, concatenated
                    ctypes.c_void_p,  # int64 offsets[n_refs + 1] into blob
                    ctypes.c_int64,   # n_refs
                    ctypes.c_void_p,  # text_out
                    ctypes.c_int64,   # text_cap
                    ctypes.c_void_p,  # int64 text_offs[n_refs + 1] (out)
                    ctypes.c_void_p,  # int64 meta[n_refs][4] (out)
                ]
                _pdf_fn = _make_pdf_wrapper(fn)
            else:
                _pdf_fn = None
            _pdf_cached = True
    return _pdf_fn

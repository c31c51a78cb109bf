"""Optional native (C) kernels: HTML text-block extraction and PDF summary.

Each kernel has one entry point, called once per batch. Both calls release
the GIL while in C. The extract stage calls the HTML kernel from its
process's one kernel thread (``stages/extract_stage.py``), so that
kernel's thread-local scratch is one set per process, on that thread.
``get_native_batch_extractor()`` returns ``extract_blocks_batched(values_addr,
offsets, total_bytes) -> (blocks, block_lens, doc_nblocks) | None``, one C
call over a batch of documents laid out as an Arrow binary array (a values
buffer and int64 offsets into it). ``get_native_pdf_summary()`` returns
``pdf_layout_batch(payloads) -> list[tuple | None]``, one C call for a list
of PDF payloads giving per payload ``(num_pages, n_text_spans, n_rects,
joined span text)`` or None for a payload the pure parser must take. Both
are None when unavailable. Each shared library compiles on first use from
the in-repo C source with the system compiler (cached under the per-user
``~/.cache/hpr_native`` keyed by a source hash, ownership-checked before
loading); ANY failure — no compiler, compile error, load error — yields
None and extraction runs on the DOM oracle path (``parse_html`` +
``extract_text_blocks``) or the pure PDF parser, so the engine never depends
on a toolchain.

The HTML kernel compiles in ``extract/boilerplate.py``'s drop tables and
class/id markers; its wrapper passes that module's two thresholds
(``MAX_LINK_DENSITY``, ``MIN_TEXT_LEN``) on every call, so they are set in
one place. Byte-parity with the DOM oracle is pinned by
tests/test_native_parity.py, tests/test_fused_parity.py,
tests/test_tag_table_parity.py and tests/test_extraction_hypothesis.py, all
through this one batch entry point; the PDF kernel's parity with the pure
parser by tests/test_pdf_native_parity.py and
tests/test_layout_json_hypothesis.py.
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
_bfn = None


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
    bfn = lib.hpr_extract_blocks_batch
    bfn.restype = ctypes.c_int64
    bfn.argtypes = [
        ctypes.c_void_p,  # values
        ctypes.c_void_p,  # int64 offsets
        ctypes.c_int64,   # n_docs
        ctypes.c_void_p,  # out
        ctypes.c_int64,   # out_cap
        ctypes.c_void_p,  # block_lens (int64*)
        ctypes.c_int64,   # lens_cap
        ctypes.c_void_p,  # doc_nblocks (int64*)
        ctypes.POINTER(ctypes.c_int64),
        ctypes.c_double,  # max_link_density
        ctypes.c_double,  # min_text_len
    ]
    return bfn


def _make_batch_wrapper(bfn):
    import numpy as np

    from html_parser_ray.extract.boilerplate import MAX_LINK_DENSITY, MIN_TEXT_LEN

    c_int64 = ctypes.c_int64
    local = threading.local()

    def extract_blocks_batched(values_addr, offsets_np, total_bytes):
        """One C call for a whole batch of documents.

        ``values_addr``: address of the contiguous UTF-8 values buffer (the
        Arrow binary-array data buffer); ``offsets_np``: int64 numpy array of
        n_docs+1 absolute offsets into it. Returns
        (out_memoryview, block_lens_np, doc_nblocks_np) or None on error
        (the caller extracts the batch on the DOM path). The scratch is
        thread-local and grow-only; a capacity code grows it and retries,
        so no batch is declined for what an earlier batch left behind. The
        returned memoryview is that scratch: it holds until the calling
        thread's next call (the extract stage copies the blocks out on its
        kernel thread, in the work item that made the call)."""
        n_docs = len(offsets_np) - 1
        # first guesses; a batch past either takes the grow-and-retry below
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
        docs = local.docs
        # no valid batch needs more than this many output bytes or blocks
        limit = 4 * (int(total_bytes) + n_docs) + (1 << 20)
        n_total = c_int64(0)
        while True:
            rc = bfn(
                values_addr,
                offsets_np.ctypes.data,
                n_docs,
                ctypes.addressof(local.out),
                local.out_cap,
                local.lens.ctypes.data,
                local.lens_cap,
                docs.ctypes.data,
                ctypes.byref(n_total),
                MAX_LINK_DENSITY,
                MIN_TEXT_LEN,
            )
            # capacity codes: -2 the block bytes, -3 the block lengths ran
            # out (block-dense html has up to total_bytes // 4 blocks). The
            # scratch that ran out doubles, up to a bound no valid output
            # reaches, and the batch runs again.
            if rc == -2 and local.out_cap < limit:
                local.out = ctypes.create_string_buffer(local.out_cap * 2)
                local.out_cap = len(local.out)
            elif rc == -3 and local.lens_cap < limit:
                local.lens = np.empty(local.lens_cap * 2, dtype=np.int64)
                local.lens_cap = len(local.lens)
            else:
                break
        if rc != 0:
            return None
        nt = n_total.value
        return memoryview(local.out), local.lens[:nt].copy(), docs[:n_docs].copy()

    return extract_blocks_batched


def get_native_batch_extractor():
    """Compiled batched extractor callable (``extract_blocks_batched``
    above) or None (thread-safe, cached). Any thread may call it; each
    calling thread grows its own scratch."""
    global _cached, _bfn
    if _cached:
        return _bfn
    with _lock:
        if not _cached:
            bfn = _build_lib()
            _bfn = None if bfn is None else _make_batch_wrapper(bfn)
            _cached = True
    return _bfn


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
        # span text is about a quarter of its payload (at most 0.4 on the
        # synthesized PDFs); a batch whose text inflates past this first
        # guess takes the -2 retry below. The buffer is zero-filled, so its
        # size is resident memory.
        need = max(1 << 16, len(blob) // 2 + 1024)
        if getattr(local, "text_cap", 0) < need:
            local.text_cap = need
            local.text = ctypes.create_string_buffer(need)
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

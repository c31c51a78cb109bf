"""Boilerplate-strip heuristics over the index-array DOM.

The reference has no boilerplate module — this layer is owned by this repo
(north_star in BASELINE.json): tag/selector-based block classification plus
text-density and link-density scoring, built on the engine's selector matcher
and innerText semantics so the *text* of every kept block is exactly the
reference-semantics extracted text.

Deterministic by construction: same DOM in, same block decisions out.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from html_parser_ray.html.text import NormState, decode_normalize_segment
from html_parser_ray.html.tokenizer import KIND_ELEMENT, KIND_TEXT

# The drop tables below are compiled into the native kernel too
# (native/fused_extract.c); tests/test_tag_table_parity.py pins the two.

# Subtrees dropped wholesale: scripts/styles are never content; nav/chrome
# elements are boilerplate by role.
DROP_TAGS = frozenset(
    b"script style noscript template nav header footer aside form iframe "
    b"button select option label svg head title".split()
)

# class/id substrings that mark chrome blocks (checked on block elements only)
DROP_CLASS_SUBSTRINGS = (
    b"sidebar", b"advert", b"banner", b"cookie", b"popup",
    b"share", b"social", b"comment", b"related", b"menu", b"breadcrumb",
)
DROP_CLASS_TOKENS = (b"ad", b"ads", b"nav", b"footer", b"header")

# block-level elements that form candidate text blocks
BLOCK_TAGS = frozenset(
    b"p div article section main li td th blockquote pre h1 h2 h3 h4 h5 h6 "
    b"dd dt figcaption caption summary".split()
)

LINK_TAG = b"a"


@dataclass(frozen=True)
class ExtractConfig:
    """Extraction thresholds (part of this engine's spec, pinned by tests):
    the two scalars the native kernel takes as arguments."""

    # a block whose link-text/text ratio exceeds this is navigation-like
    max_link_density: float = 0.5
    # minimum normalized text length for a block to be emitted
    min_text_len: int = 1


def _region_marks_boilerplate_impl(region: bytes) -> bool:
    """Pure function of the raw attr-region bytes -> boilerplate verdict.

    Memoized per process via the wrapper below: class/id attribute regions
    repeat heavily across real documents (nav/footer/sidebar markup is
    templated), so most calls are dict hits — measured ~17% of single-core
    extraction time before the memo."""
    from html_parser_ray.html.attrs import collect_attrs

    attrs = collect_attrs(region, 0, len(region))
    blob_parts = []
    cls = attrs.get(b"class")
    if cls:
        blob_parts.append(cls.lower())
    id_ = attrs.get(b"id")
    if id_:
        blob_parts.append(id_.lower())
    if not blob_parts:
        return False
    blob = b" ".join(blob_parts)
    for sub in DROP_CLASS_SUBSTRINGS:
        if sub in blob:
            return True
    tokens = blob.split()
    for tok in DROP_CLASS_TOKENS:
        if tok in tokens:
            return True
    return False


def _class_id_marks_boilerplate(doc, idx: int) -> bool:
    # cheap substring precheck on the raw attr region: most content elements
    # carry no class/id at all, so skip the full attribute parse for them
    # ("id" in region may false-positive on e.g. "width" — conservative)
    start, end = doc.name_end[idx], doc.attr_end[idx]
    if end <= start:
        return False
    region = doc.source[start:end]
    # case-insensitive: attr NAMES are case-insensitive at the parse layer
    # (attrs.py), so CLASS="advert" must not bypass the verdict
    rl = region.lower()
    if b"class" not in rl and b"id" not in rl:
        return False
    return _region_marks_boilerplate(region)


def compute_drop_mask(doc) -> list[bool]:
    """Per-node boolean: True when the node lies inside a dropped subtree.

    Single preorder pass using subtree_end windows — the index-array analog of
    running the drop selectors and masking their subtrees.
    """
    n = len(doc.kind)
    mask = [False] * n
    drop_until = -1
    for i in range(1, n):
        if i <= drop_until:
            mask[i] = True
            continue
        if doc.kind[i] != KIND_ELEMENT:
            continue
        name = doc.name[i]
        if name in DROP_TAGS or _class_id_marks_boilerplate(doc, i):
            mask[i] = True
            end = doc.subtree_end[i]
            if end > drop_until:
                drop_until = end
    return mask


def _link_mask(doc) -> list[bool]:
    """True for nodes inside an <a> subtree."""
    n = len(doc.kind)
    mask = [False] * n
    until = -1
    for i in range(1, n):
        if i <= until:
            mask[i] = True
            continue
        if doc.kind[i] == KIND_ELEMENT and doc.name[i] == LINK_TAG:
            mask[i] = True
            end = doc.subtree_end[i]
            if end > until:
                until = end
    return mask


def extract_text_blocks(doc, cfg: ExtractConfig | None = None) -> list[bytes]:
    """Main-content text blocks in document order.

    Algorithm:
    1. drop masked subtrees (tags + class/id heuristics);
    2. walk remaining *leaf-most* block elements (block elements with no block
       descendants carrying text) in preorder;
    3. per block, compute normalized reference-semantics text and the link
       density (normalized text length inside <a> vs total); blocks over
       ``max_link_density`` drop;
    4. emit surviving block texts in order.

    Text not under any block element (e.g. bare body text) attaches to the
    nearest enclosing emitted block via a catch-all document-level sweep.
    """
    if cfg is None:
        cfg = ExtractConfig()
    n = len(doc.kind)
    if n <= 1:
        return []
    kind = doc.kind
    names = doc.name
    sub_end = doc.subtree_end
    src = doc.source
    ns, ne = doc.name_start, doc.name_end
    drop_tags = DROP_TAGS

    # single fused preorder pass: dropped subtrees are *jumped over* (never
    # visited), link/block membership tracked with subtree-end watermarks and
    # a block-ancestor stack — no per-text parent walks, no mask arrays
    link_until = -1
    block_stack: list[int] = []  # subtree_end of open block ancestors
    block_owner: list[int] = []  # matching owner ids

    order: list[int] = []
    texts_by_owner: dict[int, list[tuple[int, bool]]] = {}

    attr_end = doc.attr_end
    region_marks = _region_marks_boilerplate
    block_tags = BLOCK_TAGS

    i = 1
    while i < n:
        while block_stack and i > block_stack[-1]:
            block_stack.pop()
            block_owner.pop()
        k = kind[i]
        if k == KIND_ELEMENT:
            name = names[i]
            if name in drop_tags:
                i = sub_end[i] + 1
                continue
            # inlined class/id boilerplate check (precheck avoids the attr
            # parse for the no-attr / no-class-id majority; memoized beyond)
            nend = ne[i]
            aend = attr_end[i]
            if aend > nend:
                region = src[nend:aend]
                rl = region.lower()
                if (b"class" in rl or b"id" in rl) and region_marks(region):
                    i = sub_end[i] + 1
                    continue
            if name in block_tags:
                block_stack.append(sub_end[i])
                block_owner.append(i)
            elif name == LINK_TAG and i > link_until:
                end = sub_end[i]
                if end > link_until:
                    link_until = end
        elif k == KIND_TEXT:
            owner = block_owner[-1] if block_stack else 0
            got = texts_by_owner.get(owner)
            if got is None:
                texts_by_owner[owner] = got = []
                order.append(owner)
            got.append((i, i <= link_until))
        i += 1

    blocks: list[bytes] = []
    for owner in order:
        out = bytearray()
        link_out = bytearray()
        state = NormState()
        link_state = NormState()
        for t, in_link in texts_by_owner[owner]:
            seg = src[ns[t] : ne[t]]
            decode_normalize_segment(out, seg, state)
            if in_link:
                decode_normalize_segment(link_out, seg, link_state)
        total = len(out)
        if total < cfg.min_text_len:
            continue
        if total > 0 and len(link_out) / total > cfg.max_link_density:
            continue
        blocks.append(bytes(out))
    return blocks

_region_marks_cached = lru_cache(maxsize=1 << 16)(_region_marks_boilerplate_impl)

# memo only bounded-size regions: unique large attribute payloads (inline
# style/data-URI blobs) would otherwise pin up to 65536 arbitrarily large byte
# strings per worker process
_MEMO_MAX_REGION = 1024


def _region_marks_boilerplate(region: bytes) -> bool:
    if len(region) > _MEMO_MAX_REGION:
        return _region_marks_boilerplate_impl(region)
    return _region_marks_cached(region)

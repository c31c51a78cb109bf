/* Native kernel for HTML text-block extraction.
 *
 * Byte-for-byte equal to the DOM oracle (parse_html + extract_text_blocks,
 * html_parser_ray/extract/boilerplate.py) in a single pass without a DOM:
 * permissive HTML tokenization with the open-element name stack,
 * drop/block/link watermarks, per-owner segment collection, and the
 * entity-decode + whitespace-normalize emission tail. The tag tables and the
 * class/id boilerplate markers are boilerplate.py's module constants; the
 * two scalar thresholds (max_link_density, min_text_len), all of
 * ExtractConfig, are arguments.
 *
 * ABI (ctypes), one entry point for a batch of documents:
 *   int64_t hpr_extract_blocks_batch(const uint8_t* values,
 *                              const int64_t* offsets, int64_t n_docs,
 *                              int drop_whitespace_text,
 *                              uint8_t* out, int64_t out_cap,
 *                              int64_t* block_lens, int64_t lens_cap,
 *                              int64_t* doc_nblocks, int64_t* n_blocks_total,
 *                              double max_link_density, double min_text_len);
 *   return 0 on success; <0 on capacity/internal errors (the caller extracts
 *   the batch on the DOM path instead).
 *
 * Compile: gcc -O3 -shared -fPIC -o fused_extract.so fused_extract.c
 */

#include <stdint.h>
#include <stdlib.h>
#include <string.h>

/* ---------------- tag classification ---------------- */

#define F_VOID 1u
#define F_RAWTEXT 2u
#define F_SVG 4u
#define F_PLAINTEXT 8u
#define F_TRIGGER 16u
#define F_DROP 32u
#define F_BLOCK 64u
#define F_LINK 128u
/* implicit-close source kinds (mutually exclusive) */
#define SRC_SHIFT 8
#define SRC_P (1u << SRC_SHIFT)
#define SRC_LI (2u << SRC_SHIFT)
#define SRC_DTDD (3u << SRC_SHIFT)
#define SRC_TR (4u << SRC_SHIFT)
#define SRC_TDTH (5u << SRC_SHIFT)
#define SRC_HEAD (6u << SRC_SHIFT)
#define SRC_OPTION (7u << SRC_SHIFT)
#define SRC_MASK (7u << SRC_SHIFT)
/* p-closer marker: tags whose open implicitly closes an open <p> */
#define F_PCLOSER (1u << 11)
/* new-tag identity markers for the non-p closer rules */
#define NT_LI (1u << 12)
#define NT_DT (1u << 13)
#define NT_DD (1u << 14)
#define NT_TR (1u << 15)
#define NT_TD (1u << 16)
#define NT_TH (1u << 17)
#define NT_BODY (1u << 18)
#define NT_OPTION (1u << 19)

static int eq(const uint8_t *s, int len, const char *lit) {
    return (int)strlen(lit) == len && memcmp(s, lit, (size_t)len) == 0;
}

/* classify a LOWERCASED tag name */
static uint32_t classify(const uint8_t *s, int len) {
    uint32_t f = 0;
    switch (len) {
    case 1:
        if (eq(s, len, "a")) f |= F_LINK;
        if (eq(s, len, "p"))
            f |= F_TRIGGER | F_BLOCK | SRC_P | F_PCLOSER;
        break;
    case 2:
        if (eq(s, len, "br") || eq(s, len, "hr")) {
            f |= F_VOID;
            if (eq(s, len, "hr")) f |= F_TRIGGER | F_PCLOSER;
        }
        if (eq(s, len, "li"))
            f |= F_TRIGGER | F_BLOCK | SRC_LI | NT_LI;
        if (eq(s, len, "dt"))
            f |= F_TRIGGER | F_BLOCK | SRC_DTDD | NT_DT;
        if (eq(s, len, "dd"))
            f |= F_TRIGGER | F_BLOCK | SRC_DTDD | NT_DD;
        if (eq(s, len, "tr"))
            f |= F_TRIGGER | SRC_TR | NT_TR;
        if (eq(s, len, "td"))
            f |= F_TRIGGER | F_BLOCK | SRC_TDTH | NT_TD;
        if (eq(s, len, "th"))
            f |= F_TRIGGER | F_BLOCK | SRC_TDTH | NT_TH;
        if (eq(s, len, "h1") || eq(s, len, "h2") || eq(s, len, "h3") ||
            eq(s, len, "h4") || eq(s, len, "h5") || eq(s, len, "h6"))
            f |= F_TRIGGER | F_BLOCK | F_PCLOSER;
        if (eq(s, len, "dl") || eq(s, len, "ol") || eq(s, len, "ul"))
            f |= F_TRIGGER | F_PCLOSER;
        break;
    case 3:
        if (eq(s, len, "col") || eq(s, len, "img") || eq(s, len, "wbr"))
            f |= F_VOID;
        if (eq(s, len, "div") || eq(s, len, "nav") || eq(s, len, "pre")) {
            f |= F_TRIGGER | F_PCLOSER;
            if (eq(s, len, "div") || eq(s, len, "pre")) f |= F_BLOCK;
            if (eq(s, len, "nav")) f |= F_DROP;
        }
        if (eq(s, len, "svg")) f |= F_SVG | F_DROP;
        break;
    case 4:
        if (eq(s, len, "area") || eq(s, len, "base") || eq(s, len, "link") ||
            eq(s, len, "meta"))
            f |= F_VOID;
        if (eq(s, len, "body")) f |= F_TRIGGER | NT_BODY;
        if (eq(s, len, "form")) f |= F_TRIGGER | F_PCLOSER | F_DROP;
        if (eq(s, len, "main")) f |= F_TRIGGER | F_PCLOSER | F_BLOCK;
        if (eq(s, len, "head")) f |= SRC_HEAD | F_DROP;
        break;
    case 5:
        if (eq(s, len, "embed") || eq(s, len, "param") || eq(s, len, "track"))
            f |= F_VOID;
        if (eq(s, len, "input")) f |= F_VOID;
        if (eq(s, len, "style") || eq(s, len, "title"))
            f |= F_RAWTEXT | F_DROP;
        if (eq(s, len, "aside"))
            f |= F_TRIGGER | F_PCLOSER | F_DROP;
        if (eq(s, len, "table"))
            f |= F_TRIGGER | F_PCLOSER;
        if (eq(s, len, "label")) f |= F_DROP;
        break;
    case 6:
        if (eq(s, len, "source")) f |= F_VOID;
        if (eq(s, len, "script")) f |= F_RAWTEXT | F_DROP;
        if (eq(s, len, "option"))
            f |= F_TRIGGER | SRC_OPTION | NT_OPTION | F_DROP;
        if (eq(s, len, "select") || eq(s, len, "button") || eq(s, len, "iframe"))
            f |= F_DROP;
        if (eq(s, len, "header") || eq(s, len, "footer"))
            f |= F_TRIGGER | F_PCLOSER | F_DROP;
        break;
    case 7:
        if (eq(s, len, "article") || eq(s, len, "section"))
            f |= F_TRIGGER | F_PCLOSER | F_BLOCK;
        if (eq(s, len, "address")) /* trigger but NOT in BLOCK_TAGS */
            f |= F_TRIGGER | F_PCLOSER;
        if (eq(s, len, "caption") || eq(s, len, "summary")) f |= F_BLOCK;
        break;
    case 8:
        if (eq(s, len, "textarea")) f |= F_RAWTEXT;
        if (eq(s, len, "fieldset")) f |= F_TRIGGER | F_PCLOSER;
        if (eq(s, len, "noscript") || eq(s, len, "template")) f |= F_DROP;
        break;
    case 9:
        if (eq(s, len, "plaintext")) f |= F_PLAINTEXT;
        break;
    case 10:
        if (eq(s, len, "blockquote"))
            f |= F_TRIGGER | F_PCLOSER | F_BLOCK;
        if (eq(s, len, "figcaption")) f |= F_BLOCK;
        break;
    }
    /* note: article/section/main/... BLOCK already set above; block-only
     * leftovers handled here */
    return f;
}

/* does opening new_flags close the stack-top src kind? (tags.py IMPLICIT_CLOSERS) */
static int implicitly_closes(uint32_t top_flags, uint32_t new_flags) {
    switch (top_flags & SRC_MASK) {
    case SRC_P: return (new_flags & F_PCLOSER) != 0;
    case SRC_LI: return (new_flags & NT_LI) != 0;
    case SRC_DTDD: return (new_flags & (NT_DT | NT_DD)) != 0;
    case SRC_TR: return (new_flags & NT_TR) != 0;
    case SRC_TDTH: return (new_flags & (NT_TD | NT_TH)) != 0;
    case SRC_HEAD: return (new_flags & NT_BODY) != 0;
    case SRC_OPTION: return (new_flags & NT_OPTION) != 0;
    default: return 0;
    }
}

/* ---------------- byte classes ---------------- */

static inline int is_ws(uint8_t c) {
    return c == ' ' || c == '\n' || c == '\r' || c == '\t' || c == 0x0c;
}
/* tag-name byte: anything but ws, '/', '>', NUL (so '<' IS a name byte) */
static inline int is_name(uint8_t c) {
    return !(is_ws(c) || c == '/' || c == '>' || c == 0);
}
/* attribute-name identifier byte: [A-Za-z0-9_:.-] */
static inline int is_ident(uint8_t c) {
    return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
           (c >= '0' && c <= '9') || c == '_' || c == ':' || c == '.' ||
           c == '-';
}
static inline uint8_t lower(uint8_t c) {
    return (c >= 'A' && c <= 'Z') ? (uint8_t)(c + 32) : c;
}

/* ---------------- scanners (mirroring tokenizer.py helpers) ---------------- */

/* quote-aware tag-end scan; returns index of '>' or -1 (unterminated) */
static int64_t find_tag_end(const uint8_t *s, int64_t n, int64_t i) {
    while (i < n) {
        uint8_t c = s[i];
        if (c == '>') return i;
        if (c == '"' || c == '\'') {
            int64_t q = i + 1;
            while (q < n && s[q] != c) q++;
            if (q >= n) return -1;
            i = q + 1;
            if (i >= n) return -1;
            continue;
        }
        i++;
    }
    return -1;
}

static int is_explicit_self_closing(const uint8_t *s, int64_t start, int64_t gt,
                                    int64_t n) {
    if (gt <= 0 || gt >= n || s[gt] != '>') return 0;
    int64_t j = gt;
    while (j > start && is_ws(s[j - 1])) j--;
    return j > start && s[j - 1] == '/';
}

/* scan past a matching </svg>, depth-counted; returns index AFTER the '>' or
 * -1 (tokenizer.py:_find_svg_subtree_end) */
static int64_t find_svg_end(const uint8_t *s, int64_t n, int64_t i) {
    int depth = 1;
    while (i < n) {
        const uint8_t *lt = memchr(s + i, '<', (size_t)(n - i));
        if (!lt) return -1;
        int64_t p = lt - s;
        if (p + 1 >= n) return -1;
        int64_t k = p + 1;
        while (k < n && is_ws(s[k])) k++;
        if (k >= n) return -1;
        uint8_t c = s[k];
        if (c == '!') {
            if (k + 2 < n && s[k + 1] == '-' && s[k + 2] == '-') {
                int64_t j = k + 3;
                int found = 0;
                while (j + 2 < n) {
                    const uint8_t *d = memchr(s + j, '-', (size_t)(n - j));
                    if (!d) return -1;
                    int64_t dp = d - s;
                    if (dp + 2 < n && s[dp + 1] == '-' && s[dp + 2] == '>') {
                        i = dp + 3;
                        found = 1;
                        break;
                    }
                    j = dp + 1;
                }
                if (!found) return -1;
            } else {
                const uint8_t *g = memchr(s + k + 1, '>', (size_t)(n - k - 1));
                if (!g) return -1;
                i = (g - s) + 1;
            }
        } else if (c == '?') {
            const uint8_t *g = memchr(s + k + 1, '>', (size_t)(n - k - 1));
            if (!g) return -1;
            i = (g - s) + 1;
        } else if (c == '/') {
            int64_t j = k + 1;
            while (j < n && is_ws(s[j])) j++;
            int64_t ns = j;
            while (j < n && is_name(s[j])) j++;
            const uint8_t *g = memchr(s + j, '>', (size_t)(n - j));
            if (!g) return -1;
            int64_t gp = g - s;
            if (j - ns == 3 && lower(s[ns]) == 's' && lower(s[ns + 1]) == 'v' &&
                lower(s[ns + 2]) == 'g') {
                depth--;
                if (depth == 0) return gp + 1;
            }
            i = gp + 1;
        } else {
            int64_t j = k;
            while (j < n && is_name(s[j])) j++;
            if (j == k) {
                i = p + 1;
                continue;
            }
            int64_t gt = find_tag_end(s, n, j);
            if (gt < 0) return -1;
            if (j - k == 3 && lower(s[k]) == 's' && lower(s[k + 1]) == 'v' &&
                lower(s[k + 2]) == 'g' && !is_explicit_self_closing(s, j, gt, n))
                depth++;
            i = gt + 1;
        }
    }
    return -1;
}

/* case-insensitive </tag [ws]* > search tolerating '<' in content.
 * writes content_end/close_end; returns 1 found, 0 not */
static int find_rawtext_close(const uint8_t *s, int64_t n, const uint8_t *tag,
                              int taglen, int64_t start, int64_t *content_end,
                              int64_t *close_end) {
    if (taglen == 0) return 0;
    const uint8_t *p = memchr(s + start, '<', (size_t)(n - start));
    while (p) {
        int64_t j = p - s;
        if (j + 3 >= n) return 0;
        if (s[j + 1] != '/') {
            p = memchr(s + j + 1, '<', (size_t)(n - j - 1));
            continue;
        }
        int64_t k = j + 2;
        int64_t ns = k;
        while (k < n && is_name(s[k])) k++;
        if (k - ns == taglen) {
            int match = 1;
            for (int t = 0; t < taglen; t++)
                if (lower(s[ns + t]) != tag[t]) { match = 0; break; }
            if (match) {
                int64_t w = k;
                while (w < n && is_ws(s[w])) w++;
                if (w < n && s[w] == '>') {
                    *content_end = j;
                    *close_end = w + 1;
                    return 1;
                }
            }
        }
        p = memchr(s + j + 1, '<', (size_t)(n - j - 1));
    }
    return 0;
}

/* ---------------- entity decode + normalize emission ---------------- */

typedef struct { int pending; int wrote; } Norm;

/* utf-8 encode cp (<= 0x10FFFF, not surrogate) into buf, return len */
static int utf8_encode(uint32_t cp, uint8_t *buf) {
    if (cp < 0x80) { buf[0] = (uint8_t)cp; return 1; }
    if (cp < 0x800) {
        buf[0] = (uint8_t)(0xC0 | (cp >> 6));
        buf[1] = (uint8_t)(0x80 | (cp & 0x3F));
        return 2;
    }
    if (cp < 0x10000) {
        buf[0] = (uint8_t)(0xE0 | (cp >> 12));
        buf[1] = (uint8_t)(0x80 | ((cp >> 6) & 0x3F));
        buf[2] = (uint8_t)(0x80 | (cp & 0x3F));
        return 3;
    }
    buf[0] = (uint8_t)(0xF0 | (cp >> 18));
    buf[1] = (uint8_t)(0x80 | ((cp >> 12) & 0x3F));
    buf[2] = (uint8_t)(0x80 | ((cp >> 6) & 0x3F));
    buf[3] = (uint8_t)(0x80 | (cp & 0x3F));
    return 4;
}

/* decode one entity at s[i] ('&'); needs n-i >= 4 (entities.py).
 * returns consumed (>0) and writes decoded bytes/len, or 0 = pass-through */
static int decode_entity(const uint8_t *s, int64_t n, int64_t i, uint8_t *dec,
                         int *declen) {
    if (n - i < 4) return 0;
    uint8_t nxt = s[i + 1];
    if (nxt == '#') {
        int64_t j = i + 2;
        int hex = 0;
        if (j < n && (s[j] == 'x' || s[j] == 'X')) { hex = 1; j++; }
        int64_t digs = j;
        uint32_t value = 0;
        while (j < n && s[j] != ';') {
            uint8_t c = s[j];
            int d;
            if (c >= '0' && c <= '9') d = c - '0';
            else if (hex && c >= 'a' && c <= 'f') d = c - 'a' + 10;
            else if (hex && c >= 'A' && c <= 'F') d = c - 'A' + 10;
            else return 0;
            value = value * (hex ? 16u : 10u) + (uint32_t)d;
            if (value > 0x10FFFF) return 0;
            j++;
        }
        if (j == digs || j >= n || s[j] != ';') return 0;
        if (value >= 0xD800 && value <= 0xDFFF) return 0; /* surrogate */
        *declen = utf8_encode(value, dec);
        return (int)(j + 1 - i);
    }
    /* named: amp; lt; gt; quot; apos; */
    if (n - i >= 5 && memcmp(s + i + 1, "amp;", 4) == 0) { dec[0] = '&'; *declen = 1; return 5; }
    if (n - i >= 4 && memcmp(s + i + 1, "lt;", 3) == 0) { dec[0] = '<'; *declen = 1; return 4; }
    if (n - i >= 4 && memcmp(s + i + 1, "gt;", 3) == 0) { dec[0] = '>'; *declen = 1; return 4; }
    if (n - i >= 6 && memcmp(s + i + 1, "quot;", 5) == 0) { dec[0] = '"'; *declen = 1; return 6; }
    if (n - i >= 6 && memcmp(s + i + 1, "apos;", 5) == 0) { dec[0] = '\''; *declen = 1; return 6; }
    return 0;
}

/* feed one decoded byte through the normalize machine; out==NULL counts only */
static inline void norm_byte(uint8_t b, Norm *st, uint8_t *out, int64_t *olen) {
    if (is_ws(b)) { st->pending = 1; return; }
    if (st->pending && st->wrote) {
        if (out) out[*olen] = ' ';
        (*olen)++;
    }
    if (out) out[*olen] = b;
    (*olen)++;
    st->wrote = 1;
    st->pending = 0;
}

/* byte classes for the emit scanner: 1 = whitespace, 2 = '&' */
static uint8_t EMIT_SPECIAL[256];
static int emit_special_init = 0;

/* decode+normalize segment [start,end) into out (or count only), optionally
 * feeding a SECOND normalize machine (the link-density counter) from the
 * same decoded byte stream — link segments previously decoded twice (37%%
 * of kernel time was emit_norm).
 * Fast path: runs of plain bytes (no ws, no '&') memcpy in one go; the
 * per-byte machine only touches the special bytes. */
static void emit_norm2(const uint8_t *s, int64_t start, int64_t end, Norm *st,
                       uint8_t *out, int64_t *olen, Norm *lst, int64_t *llen) {
    if (!emit_special_init) {
        memset(EMIT_SPECIAL, 0, sizeof(EMIT_SPECIAL));
        EMIT_SPECIAL[' '] = EMIT_SPECIAL['\n'] = EMIT_SPECIAL['\r'] =
            EMIT_SPECIAL['\t'] = EMIT_SPECIAL[0x0c] = 1;
        EMIT_SPECIAL['&'] = 2;
        emit_special_init = 1;
    }
    int64_t i = start;
    uint8_t dec[4];
    while (i < end) {
        /* clean run */
        int64_t run = i;
        while (run < end && !EMIT_SPECIAL[s[run]]) run++;
        if (run > i) {
            if (st->pending && st->wrote) {
                if (out) out[*olen] = ' ';
                (*olen)++;
            }
            if (out) memcpy(out + *olen, s + i, (size_t)(run - i));
            *olen += run - i;
            st->wrote = 1;
            st->pending = 0;
            if (lst) {
                if (lst->pending && lst->wrote) (*llen)++;
                *llen += run - i;
                lst->wrote = 1;
                lst->pending = 0;
            }
            i = run;
            if (i >= end) break;
        }
        uint8_t b = s[i];
        if (b == '&') {
            int declen = 0;
            /* entities.py decodes against the WHOLE buffer slice [start,end) */
            int consumed = decode_entity(s, end, i, dec, &declen);
            if (consumed > 0) {
                for (int t = 0; t < declen; t++) {
                    norm_byte(dec[t], st, out, olen);
                    if (lst) norm_byte(dec[t], lst, NULL, llen);
                }
                i += consumed;
                continue;
            }
            norm_byte(b, st, out, olen);
            if (lst) norm_byte(b, lst, NULL, llen);
            i++;
            continue;
        }
        /* whitespace run */
        while (i < end && EMIT_SPECIAL[s[i]] == 1) i++;
        st->pending = 1;
        if (lst) lst->pending = 1;
    }
}

/* ---------------- class/id boilerplate verdict ---------------- */

static const char *DROP_SUBSTR[] = {"sidebar", "advert", "banner", "cookie",
                                    "popup", "share", "social", "comment",
                                    "related", "menu", "breadcrumb"};
static const char *DROP_TOKEN[] = {"ad", "ads", "nav", "footer", "header"};

/* entity-decode + lowercase value into dst (cap), return len or -1 on overflow */
static int64_t decode_lower(const uint8_t *s, int64_t start, int64_t end,
                            uint8_t *dst, int64_t cap) {
    int64_t i = start, o = 0;
    uint8_t dec[4];
    while (i < end) {
        uint8_t b = s[i];
        if (b == '&') {
            int declen = 0;
            int consumed = decode_entity(s, end, i, dec, &declen);
            if (consumed > 0) {
                if (o + declen > cap) return -1;
                for (int t = 0; t < declen; t++) dst[o++] = lower(dec[t]);
                i += consumed;
                continue;
            }
        }
        if (o + 1 > cap) return -1;
        dst[o++] = lower(b);
        i++;
    }
    return o;
}

/* does blob (lowercased, len bl) mark boilerplate? */
static int blob_marks(const uint8_t *blob, int64_t bl) {
    for (size_t t = 0; t < sizeof(DROP_SUBSTR) / sizeof(*DROP_SUBSTR); t++) {
        size_t sl = strlen(DROP_SUBSTR[t]);
        if ((int64_t)sl <= bl) {
            for (int64_t i = 0; i + (int64_t)sl <= bl; i++)
                if (memcmp(blob + i, DROP_SUBSTR[t], sl) == 0) return 1;
        }
    }
    /* whitespace-token membership (Python bytes.split(): any ASCII ws) */
    int64_t i = 0;
    while (i < bl) {
        while (i < bl && (blob[i] == ' ' || blob[i] == '\t' || blob[i] == '\n' ||
                          blob[i] == '\r' || blob[i] == 0x0b || blob[i] == 0x0c))
            i++;
        int64_t ts = i;
        while (i < bl && !(blob[i] == ' ' || blob[i] == '\t' || blob[i] == '\n' ||
                           blob[i] == '\r' || blob[i] == 0x0b || blob[i] == 0x0c))
            i++;
        int64_t tl = i - ts;
        for (size_t t = 0; t < sizeof(DROP_TOKEN) / sizeof(*DROP_TOKEN); t++)
            if ((int64_t)strlen(DROP_TOKEN[t]) == tl &&
                memcmp(blob + ts, DROP_TOKEN[t], (size_t)tl) == 0)
                return 1;
    }
    return 0;
}

/* region [start,end): parse attrs (attrs.py iter_attrs), collect first class
 * + first id (lowercase names), build blob, verdict. */
static int class_id_marks(const uint8_t *s, int64_t start, int64_t end) {
    if (end <= start) return 0;
    /* precheck: case-INSENSITIVE "class"/"id" substring (boilerplate.py —
     * attr names are case-insensitive at the parse layer, so CLASS=...
     * must not bypass the verdict; |32 folds ASCII letters, and a false
     * positive only costs the precise attr parse below) */
    int has = 0;
    for (int64_t i = start; i + 5 <= end; i++)
        if ((s[i] | 32) == 'c' && (s[i + 1] | 32) == 'l' &&
            (s[i + 2] | 32) == 'a' && (s[i + 3] | 32) == 's' &&
            (s[i + 4] | 32) == 's') { has = 1; break; }
    if (!has)
        for (int64_t i = start; i + 2 <= end; i++)
            if ((s[i] | 32) == 'i' && (s[i + 1] | 32) == 'd') { has = 1; break; }
    if (!has) return 0;

    uint8_t blob_stack[4096];
    uint8_t *blob = blob_stack;
    int64_t blob_cap = (int64_t)sizeof(blob_stack);
    /* decoded class+id blob is bounded by the region length + 1 separator */
    if (end - start + 2 > blob_cap) {
        blob = malloc((size_t)(end - start + 2));
        if (!blob) return 0;
        blob_cap = end - start + 2;
    }
    int64_t bl = 0;
    int have_class = 0, have_id = 0;
    int64_t vclass_s = -1, vclass_e = -1, vid_s = -1, vid_e = -1;

    int64_t i = start;
    while (i < end) {
        while (i < end && is_ws(s[i])) i++;
        if (i >= end) break;
        uint8_t c = s[i];
        if (c == '>' || c == '/') break;
        int64_t nstart = i;
        while (i < end && is_ident(s[i])) i++;
        if (i == nstart) { i++; continue; }
        int64_t nlen = i - nstart;
        /* lowercase-name match */
        int is_class = (nlen == 5 && lower(s[nstart]) == 'c' &&
                        lower(s[nstart + 1]) == 'l' && lower(s[nstart + 2]) == 'a' &&
                        lower(s[nstart + 3]) == 's' && lower(s[nstart + 4]) == 's');
        int is_id = (nlen == 2 && lower(s[nstart]) == 'i' && lower(s[nstart + 1]) == 'd');
        int64_t vs = -1, ve = -1;
        if (i >= end) {
            /* boolean attr at region end */
        } else if (s[i] == '=') {
            int64_t j = i + 1;
            while (j < end && is_ws(s[j])) j++;
            if (j >= end) { vs = ve = j; i = j; }
            else {
                uint8_t vc = s[j];
                if (vc == '>' || vc == '/') { vs = ve = j; i = j; }
                else if (vc == '\'' || vc == '"') {
                    int64_t k = j + 1;
                    while (k < end && s[k] != vc) k++;
                    if (k >= end) { vs = j + 1; ve = end; i = end; }
                    else { vs = j + 1; ve = k; i = k + 1; }
                } else {
                    int64_t k = j;
                    while (k < end && s[k] != '>' && s[k] != '/' && !is_ws(s[k])) k++;
                    vs = j; ve = k; i = k;
                }
            }
        } else if (s[i] == '>' || s[i] == '/') {
            /* boolean attr, then scan ends */
            i = end;
        } else {
            i++; /* boolean attr */
        }
        if (is_class && !have_class) { have_class = 1; vclass_s = vs; vclass_e = ve; }
        if (is_id && !have_id) { have_id = 1; vid_s = vs; vid_e = ve; }
    }

    /* blob parts: non-empty class value, then non-empty id value (lowered,
     * entity-decoded), joined by one space */
    if (have_class && vclass_s >= 0 && vclass_e > vclass_s) {
        int64_t w = decode_lower(s, vclass_s, vclass_e, blob + bl, blob_cap - bl);
        if (w < 0) w = 0; /* cannot happen: cap covers the region */
        bl += w;
    }
    if (have_id && vid_s >= 0 && vid_e > vid_s) {
        if (bl > 0 && bl + 1 <= blob_cap) blob[bl++] = ' ';
        int64_t w = decode_lower(s, vid_s, vid_e, blob + bl, blob_cap - bl);
        if (w < 0) w = 0;
        bl += w;
    }
    int verdict = bl > 0 ? blob_marks(blob, bl) : 0;
    if (blob != blob_stack) free(blob);
    return verdict;
}

/* ---------------- dynamic structures ---------------- */

typedef struct {
    int64_t start, end;
    int32_t owner_slot;
    int32_t next; /* next segment of same owner, -1 end */
    uint8_t in_link;
} Seg;

#define M_NONE 0
#define M_DROP 1
#define M_BLOCK 2
#define M_LINK 3

typedef struct {
    int64_t name_off; /* into name arena */
    int32_t name_len;
    uint32_t flags;
    uint8_t mark;
} Frame;

/* ---------------- main ---------------- */

typedef struct {
    int64_t seg_cap, fr_cap, arena_cap, own_cap, idmap_cap, bs_cap;
    Seg *segs;
    Frame *stack;
    uint8_t *arena;
    int32_t *own_head, *own_tail, *idmap;
    int64_t *block_stack;
} Ctx;

static int ctx_init(Ctx *c) {
    c->seg_cap = 256;
    c->fr_cap = 64;
    c->arena_cap = 4096;
    c->own_cap = 64;
    c->idmap_cap = 64;
    c->bs_cap = 64;
    c->segs = malloc((size_t)c->seg_cap * sizeof(Seg));
    c->stack = malloc((size_t)c->fr_cap * sizeof(Frame));
    c->arena = malloc((size_t)c->arena_cap);
    c->own_head = malloc((size_t)c->own_cap * sizeof(int32_t));
    c->own_tail = malloc((size_t)c->own_cap * sizeof(int32_t));
    c->idmap = malloc((size_t)c->idmap_cap * sizeof(int32_t));
    c->block_stack = malloc((size_t)c->bs_cap * sizeof(int64_t));
    return c->segs && c->stack && c->arena && c->own_head && c->own_tail &&
           c->idmap && c->block_stack;
}

static void ctx_free(Ctx *c) {
    free(c->segs);
    free(c->stack);
    free(c->arena);
    free(c->own_head);
    free(c->own_tail);
    free(c->idmap);
    free(c->block_stack);
}

/* extract one document using ctx scratch; appends block lengths and bytes */
static int64_t extract_one(Ctx *ctx, const uint8_t *s, int64_t n,
                           int drop_ws_text, uint8_t *out, int64_t out_off,
                           int64_t out_cap, int64_t *block_lens,
                           int64_t lens_off, int64_t lens_cap,
                           int64_t *n_blocks_doc, int64_t *bytes_doc,
                           double max_link_density, double min_text_len) {
    *n_blocks_doc = 0;
    *bytes_doc = 0;
    int64_t rc = 0;

    int64_t seg_cap = ctx->seg_cap, seg_n = 0;
    int64_t fr_cap = ctx->fr_cap, fr_n = 0;
    int64_t arena_cap = ctx->arena_cap, arena_n = 0;
    int64_t own_cap = ctx->own_cap, own_n = 0;
    int64_t idmap_cap = ctx->idmap_cap;
    int64_t bs_cap = ctx->bs_cap, bs_n = 0;
    Seg *segs = ctx->segs;
    Frame *stack = ctx->stack;
    uint8_t *arena = ctx->arena;
    int32_t *own_head = ctx->own_head, *own_tail = ctx->own_tail,
            *idmap = ctx->idmap;
    int64_t *block_stack = ctx->block_stack;
    for (int64_t t = 0; t < idmap_cap; t++) idmap[t] = -1;
    int64_t next_owner_id = 1;

    int drop_depth = 0, link_depth = 0;

#define GROW(ptr, cap, count, type)                                            \
    if ((count) >= (cap)) {                                                    \
        (cap) *= 2;                                                            \
        void *np_ = realloc((ptr), (size_t)(cap) * sizeof(type));              \
        if (!np_) { rc = -1; goto done; }                                      \
        (ptr) = np_;                                                           \
    }

    /* emit a text segment */
#define EMIT(st_, en_)                                                          \
    do {                                                                        \
        int64_t oid_ = bs_n ? block_stack[bs_n - 1] : 0;                        \
        if (oid_ >= idmap_cap) {                                                \
            int64_t old_ = idmap_cap;                                           \
            while (idmap_cap <= oid_) idmap_cap *= 2;                           \
            void *np2_ = realloc(idmap, (size_t)idmap_cap * sizeof(int32_t));   \
            if (!np2_) { rc = -1; goto done; }                                  \
            idmap = np2_;                                                       \
            for (int64_t t_ = old_; t_ < idmap_cap; t_++) idmap[t_] = -1;       \
        }                                                                       \
        int32_t slot_ = idmap[oid_];                                            \
        if (slot_ < 0) {                                                        \
            GROW(own_head, own_cap, own_n + 1, int32_t);                        \
            /* own_tail shares cap growth */                                    \
            void *nt_ = realloc(own_tail, (size_t)own_cap * sizeof(int32_t));   \
            if (!nt_) { rc = -1; goto done; }                                   \
            own_tail = nt_;                                                     \
            slot_ = (int32_t)own_n;                                             \
            own_head[slot_] = -1;                                               \
            own_tail[slot_] = -1;                                               \
            own_n++;                                                            \
            idmap[oid_] = slot_;                                                \
        }                                                                       \
        GROW(segs, seg_cap, seg_n, Seg);                                        \
        segs[seg_n].start = (st_);                                              \
        segs[seg_n].end = (en_);                                                \
        segs[seg_n].owner_slot = slot_;                                         \
        segs[seg_n].in_link = (uint8_t)(link_depth > 0);                        \
        segs[seg_n].next = -1;                                                  \
        if (own_tail[slot_] >= 0) segs[own_tail[slot_]].next = (int32_t)seg_n;  \
        else own_head[slot_] = (int32_t)seg_n;                                  \
        own_tail[slot_] = (int32_t)seg_n;                                       \
        seg_n++;                                                                \
    } while (0)

#define POP_FRAME()                                                             \
    do {                                                                        \
        Frame *f_ = &stack[--fr_n];                                             \
        arena_n = f_->name_off;                                                 \
        if (f_->mark == M_BLOCK) bs_n--;                                        \
        else if (f_->mark == M_DROP) drop_depth--;                              \
        else if (f_->mark == M_LINK) link_depth--;                              \
    } while (0)

    int64_t i = 0;
    while (i < n) {
        if (s[i] != '<') {
            int64_t start = i;
            const uint8_t *lt = memchr(s + i, '<', (size_t)(n - i));
            i = lt ? (lt - s) : n;
            if (i == start) continue;
            if (drop_depth == 0) {
                if (drop_ws_text && is_ws(s[start]) && is_ws(s[i - 1])) {
                    int allws = 1;
                    for (int64_t t = start; t < i; t++)
                        if (!is_ws(s[t])) { allws = 0; break; }
                    if (allws) continue;
                }
                EMIT(start, i);
            }
            continue;
        }
        if (i + 1 >= n) { i++; continue; }
        uint8_t c = s[i + 1];
        if (c == '/') { /* closing tag */
            int64_t j = i + 2;
            if (j < n && is_ws(s[j])) { while (j < n && is_ws(s[j])) j++; }
            int64_t ns = j;
            while (j < n && is_name(s[j])) j++;
            int64_t nlen = j - ns;
            /* find '>' after name (tokenizer: fused = [ws]* '>' else plain find) */
            const uint8_t *g = memchr(s + j, '>', (size_t)(n - j));
            i = g ? (g - s) + 1 : n;
            if (nlen == 0) continue;
            /* nearest-open match by lowered full-length compare */
            int64_t found = -1;
            for (int64_t f = fr_n - 1; f >= 0; f--) {
                if (stack[f].name_len != nlen) continue;
                const uint8_t *fn = arena + stack[f].name_off;
                int match = 1;
                for (int64_t t = 0; t < nlen; t++)
                    if (fn[t] != lower(s[ns + t])) { match = 0; break; }
                if (match) { found = f; break; }
            }
            if (found >= 0)
                while (fr_n > found) POP_FRAME();
            continue;
        }
        if (c == '?') { /* PI: find "?>" else EOF (tokenizer.py:_skip_pi) */
            int64_t j = i + 2;
            int64_t newi = n;
            while (j + 1 < n) {
                const uint8_t *q = memchr(s + j, '?', (size_t)(n - j));
                if (!q) break;
                int64_t qp = q - s;
                if (qp + 1 < n && s[qp + 1] == '>') { newi = qp + 2; break; }
                j = qp + 1;
            }
            i = newi;
            continue;
        }
        if (c == '!') {
            if (i + 3 < n && s[i + 2] == '-' && s[i + 3] == '-') {
                /* comment incl. <!--> short form */
                int64_t j = i + 4;
                if (j < n && s[j] == '>') { i = j + 1; continue; }
                int64_t newi = n;
                while (j + 2 < n) {
                    const uint8_t *d = memchr(s + j, '-', (size_t)(n - j));
                    if (!d) break;
                    int64_t dp = d - s;
                    if (dp + 2 < n && s[dp + 1] == '-' && s[dp + 2] == '>') {
                        newi = dp + 3;
                        break;
                    }
                    j = dp + 1;
                }
                i = newi;
            } else {
                const uint8_t *g = memchr(s + i + 2, '>', (size_t)(n - i - 2));
                i = g ? (g - s) + 1 : n;
            }
            continue;
        }

        /* opening tag */
        int64_t j = i + 1;
        if (is_ws(s[j])) { while (j < n && is_ws(s[j])) j++; }
        int64_t name_start = j;
        while (j < n && is_name(s[j])) j++;
        if (j == name_start) { /* malformed: consume one byte */
            i = (j + 1 < n) ? j + 1 : n;
            continue;
        }
        int64_t name_end = j;
        int64_t nlen = name_end - name_start;
        int64_t attr_start = name_end, attr_end, gt;
        if (j < n && s[j] == '>') { gt = j; attr_end = j; i = j + 1; }
        else {
            int64_t f = find_tag_end(s, n, j);
            if (f >= 0) { gt = f; attr_end = f; i = f + 1; }
            else { gt = n; attr_end = n; i = n; }
        }

        /* lowered tag name into scratch (tag names we classify are short) */
        uint8_t lname[256];
        int ll = nlen > 255 ? 255 : (int)nlen;
        for (int t = 0; t < ll; t++) lname[t] = lower(s[name_start + t]);
        uint32_t flags = nlen <= 255 ? classify(lname, (int)nlen) : 0;

        if ((flags & F_TRIGGER) && fr_n > 0) {
            while (fr_n > 0 && implicitly_closes(stack[fr_n - 1].flags, flags))
                POP_FRAME();
        }

        int dropped = 0;
        if (drop_depth == 0) {
            if (flags & F_DROP) dropped = 1;
            else if (attr_end > attr_start &&
                     class_id_marks(s, attr_start, attr_end))
                dropped = 1;
        }

        if (flags & F_SVG) {
            if (is_explicit_self_closing(s, attr_start, gt, n)) continue;
            int64_t content_start = i;
            int64_t close_end = find_svg_end(s, n, i);
            if (close_end >= 0) {
                int64_t content_end = close_end;
                while (content_end > content_start && s[content_end - 1] != '<')
                    content_end--;
                if (content_end > content_start && drop_depth == 0 && !dropped)
                    EMIT(content_start, content_end - 1);
                i = close_end;
            } else {
                if (n > content_start && drop_depth == 0 && !dropped)
                    EMIT(content_start, n);
                i = n;
            }
            continue;
        }

        int self_close = (flags & F_VOID) != 0;

        if (!self_close && (flags & F_PLAINTEXT)) {
            if (n > i && drop_depth == 0 && !dropped) EMIT(i, n);
            i = n;
            continue;
        }

        if (!self_close && (flags & F_RAWTEXT)) {
            int64_t content_start = i, content_end, close_end;
            if (find_rawtext_close(s, n, lname, (int)nlen, i, &content_end,
                                   &close_end)) {
                if (content_end > content_start && drop_depth == 0 && !dropped)
                    EMIT(content_start, content_end);
                i = close_end;
            } else {
                if (n > content_start && drop_depth == 0 && !dropped)
                    EMIT(content_start, n);
                i = n;
            }
            continue;
        }

        if (self_close) continue;

        /* push */
        uint8_t mark = M_NONE;
        if (dropped) { drop_depth++; mark = M_DROP; }
        else if (drop_depth == 0 && (flags & F_BLOCK)) {
            GROW(block_stack, bs_cap, bs_n, int64_t);
            block_stack[bs_n++] = next_owner_id++;
            mark = M_BLOCK;
        } else if (drop_depth == 0 && (flags & F_LINK)) {
            link_depth++;
            mark = M_LINK;
        }
        GROW(stack, fr_cap, fr_n, Frame);
        while (arena_n + nlen > arena_cap) {
            arena_cap *= 2;
            void *na = realloc(arena, (size_t)arena_cap);
            if (!na) { rc = -1; goto done; }
            arena = na;
        }
        /* store LOWERED name (full length) */
        for (int64_t t = 0; t < nlen; t++)
            arena[arena_n + t] = lower(s[name_start + t]);
        stack[fr_n].name_off = arena_n;
        stack[fr_n].name_len = (int32_t)nlen;
        stack[fr_n].flags = flags;
        stack[fr_n].mark = mark;
        arena_n += nlen;
        fr_n++;
    }

    /* emission tail: per owner in first-text order */
    {
        int64_t ooff = out_off;
        for (int64_t slot = 0; slot < own_n; slot++) {
            Norm st = {0, 0}, lst = {0, 0};
            int64_t blen = 0, llen = 0;
            for (int32_t sg = own_head[slot]; sg >= 0; sg = segs[sg].next) {
                if (ooff + blen + (segs[sg].end - segs[sg].start) + 1 > out_cap) {
                    rc = -2;
                    goto done;
                }
                emit_norm2(s, segs[sg].start, segs[sg].end, &st, out + ooff,
                           &blen, segs[sg].in_link ? &lst : NULL, &llen);
            }
            if ((double)blen < min_text_len) continue;
            if (blen > 0 && (double)llen / (double)blen > max_link_density)
                continue;
            if (lens_off + *n_blocks_doc >= lens_cap) { rc = -3; goto done; }
            block_lens[lens_off + (*n_blocks_doc)++] = blen;
            ooff += blen;
        }
        *bytes_doc = ooff - out_off;
    }

done:
    /* hand grown scratch back to the context for reuse across documents */
    ctx->seg_cap = seg_cap;
    ctx->fr_cap = fr_cap;
    ctx->arena_cap = arena_cap;
    ctx->own_cap = own_cap;
    ctx->idmap_cap = idmap_cap;
    ctx->bs_cap = bs_cap;
    ctx->segs = segs;
    ctx->stack = stack;
    ctx->arena = arena;
    ctx->own_head = own_head;
    ctx->own_tail = own_tail;
    ctx->idmap = idmap;
    ctx->block_stack = block_stack;
    return rc;
}

/* Batched entry: documents as one contiguous values buffer + int64 offsets
 * (the Arrow binary-array layout). Writes all blocks into out back-to-back,
 * per-block lengths into block_lens, and per-document block counts into
 * doc_nblocks. */
int64_t hpr_extract_blocks_batch(const uint8_t *values, const int64_t *offsets,
                                 int64_t n_docs, int drop_ws_text, uint8_t *out,
                                 int64_t out_cap, int64_t *block_lens,
                                 int64_t lens_cap, int64_t *doc_nblocks,
                                 int64_t *n_blocks_total,
                                 double max_link_density, double min_text_len) {
    *n_blocks_total = 0;
    Ctx ctx;
    if (!ctx_init(&ctx)) return -1;
    int64_t rc = 0;
    int64_t out_off = 0, lens_off = 0;
    for (int64_t d = 0; d < n_docs; d++) {
        int64_t nb = 0, bytes_doc = 0;
        rc = extract_one(&ctx, values + offsets[d], offsets[d + 1] - offsets[d],
                         drop_ws_text, out, out_off, out_cap, block_lens,
                         lens_off, lens_cap, &nb, &bytes_doc,
                         max_link_density, min_text_len);
        if (rc != 0) break;
        doc_nblocks[d] = nb;
        lens_off += nb;
        out_off += bytes_doc;
    }
    *n_blocks_total = lens_off;
    ctx_free(&ctx);
    return rc;
}

/* Native layout-summary kernel for the PDF branch.
 *
 * hpr_pdf_layout_batch(blob, offsets, n_refs, text_out, text_cap, text_offs,
 *                      meta) -> 0, or
 *   -2  text_out capacity too small -> caller grows it and retries the whole
 *       batch (each ref's result depends only on its own payload)
 *
 * Ref i's payload is blob[offsets[i], offsets[i + 1]). Per ref, meta[4i..4i+3]
 * gets [ok, num_pages, n_text_spans, n_rects] and its span texts, joined with
 * '\n', land in text_out[text_offs[i], text_offs[i + 1]). ok = 0 is a
 * structural surprise (no/odd xref, xref streams, missing tree, bad stream,
 * bad flate, text over REF_TEXT_MAX): the caller runs the pure-Python parser
 * (html_parser_ray/functions/pdfcodec.py:parse_pdf) for that ref, and its
 * text range is empty.
 *
 * Scope: the WELL-FORMED fast path only — classic xref table (not 1.5+ xref
 * streams), /Root -> /Pages -> /Kids page tree, direct /Length, FlateDecode
 * or raw streams. Anything else declines; the Python parser is the
 * reference semantics and handles reconstruction. The content tokenizer
 * mirrors pdfcodec's regex semantics exactly (alternation order, one-byte
 * advance on failed match, PDF-string class without nesting, \\ooo octal and
 * named escapes, Tj / [..] TJ / 4-numbers-then-re) so the summary is
 * byte-identical with the Python path on every file the fast path accepts —
 * pinned by tests/test_pdf_native_parity.py.
 */

#define _GNU_SOURCE /* memmem */
#include <stdint.h>
#include <stdlib.h>
#include <string.h>
#include <zlib.h>

typedef int64_t i64;
typedef uint8_t u8;

static int is_ws(u8 c) {
    return c == ' ' || c == '\t' || c == '\n' || c == '\r' || c == '\f' ||
           c == '\v';
}
static int is_digit(u8 c) { return c >= '0' && c <= '9'; }
static int is_numch(u8 c) {
    return is_digit(c) || c == '.' || c == '+' || c == '-';
}
static int is_word(u8 c) {
    return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || is_digit(c) ||
           c == '_';
}

/* forward find of needle in hay[from, to) */
static i64 find(const u8 *hay, i64 from, i64 to, const char *needle) {
    i64 nl = (i64)strlen(needle);
    if (to - from < nl) return -1;
    const u8 *p = (const u8 *)memmem(hay + from, (size_t)(to - from), needle,
                                     (size_t)nl);
    return p ? (i64)(p - hay) : -1;
}

/* reverse find (last occurrence) of needle in hay[0, to) */
static i64 rfind(const u8 *hay, i64 to, const char *needle) {
    i64 nl = (i64)strlen(needle);
    for (i64 i = to - nl; i >= 0; i--)
        if (memcmp(hay + i, needle, (size_t)nl) == 0) return i;
    return -1;
}

/* parse a nonnegative decimal starting at *pos (must start with a digit);
 * advances *pos; returns -1 if no digit */
static i64 parse_int(const u8 *p, i64 n, i64 *pos) {
    i64 i = *pos, v = 0;
    if (i >= n || !is_digit(p[i])) return -1;
    while (i < n && is_digit(p[i])) {
        v = v * 10 + (p[i] - '0');
        if (v > (i64)1 << 60) return -1;
        i++;
    }
    *pos = i;
    return v;
}

static i64 skip_ws_min1(const u8 *p, i64 n, i64 i) {
    i64 s = i;
    while (i < n && is_ws(p[i])) i++;
    return i > s ? i : -1;
}

/* ---- object table via the xref table (mirror of _spans_via_xref) -------- */

typedef struct {
    i64 *starts; /* body span per object number (index = objnum) */
    i64 *ends;
    i64 cap; /* table size = max objnum + 1 */
} ObjTable;

static int obj_lookup(const ObjTable *t, i64 num, i64 *s, i64 *e) {
    if (num < 0 || num >= t->cap || t->starts[num] < 0) return 0;
    *s = t->starts[num];
    *e = t->ends[num];
    return 1;
}

/* returns 0 ok, -1 fallback */
static int spans_via_xref(const u8 *p, i64 n, ObjTable *t) {
    i64 sx = rfind(p, n, "startxref");
    if (sx < 0) return -1;
    i64 pos = sx + 9;
    while (pos < n && is_ws(p[pos])) pos++;
    i64 xa = parse_int(p, n, &pos);
    if (xa < 0 || xa + 4 > n || memcmp(p + xa, "xref", 4) != 0) return -1;
    pos = xa + 4;
    /* first pass: find max object number for table sizing */
    i64 scan = pos, maxnum = -1;
    while (1) {
        i64 q = scan;
        while (q < n && (p[q] == ' ' || p[q] == '\t' || p[q] == '\r' ||
                         p[q] == '\n'))
            q++;
        i64 first = parse_int(p, n, &q);
        if (first < 0) break;
        while (q < n && (p[q] == ' ' || p[q] == '\t')) q++;
        i64 count = parse_int(p, n, &q);
        if (count < 0 || count > 1 << 22) break;
        while (q < n && (p[q] == ' ' || p[q] == '\t')) q++;
        if (q < n && p[q] == '\r') q++;
        if (q >= n || p[q] != '\n') return -1;
        q++;
        if (first + count - 1 > maxnum) maxnum = first + count - 1;
        q += 20 * count;
        if (q > n) return -1;
        scan = q;
    }
    if (maxnum < 0 || maxnum > (i64)1 << 22) return -1;
    t->cap = maxnum + 1;
    t->starts = (i64 *)malloc(sizeof(i64) * (size_t)t->cap);
    t->ends = (i64 *)malloc(sizeof(i64) * (size_t)t->cap);
    if (!t->starts || !t->ends) return -1;
    for (i64 i = 0; i < t->cap; i++) t->starts[i] = -1;
    /* second pass: fill spans */
    scan = pos;
    int any = 0;
    while (1) {
        i64 q = scan;
        while (q < n && (p[q] == ' ' || p[q] == '\t' || p[q] == '\r' ||
                         p[q] == '\n'))
            q++;
        i64 first = parse_int(p, n, &q);
        if (first < 0) break;
        while (q < n && (p[q] == ' ' || p[q] == '\t')) q++;
        i64 count = parse_int(p, n, &q);
        /* identical validation to pass 1: a subsection pass 1 rejected (and
         * therefore never sized the table for) must terminate pass 2 at the
         * same point, or the writes below run past t->cap. */
        if (count < 0 || count > 1 << 22) break;
        while (q < n && (p[q] == ' ' || p[q] == '\t')) q++;
        if (q < n && p[q] == '\r') q++;
        if (q >= n || p[q] != '\n') return -1;
        q++;
        for (i64 k = 0; k < count; k++) {
            const u8 *e = p + q + 20 * k;
            if (q + 20 * (k + 1) > n) return -1;
            if (first + k < 0 || first + k >= t->cap) return -1;
            if (e[17] != 'n') continue; /* free entry */
            i64 off = 0;
            for (int d = 0; d < 10; d++) {
                if (!is_digit(e[d])) return -1;
                off = off * 10 + (e[d] - '0');
            }
            i64 lim = off + 24 < n ? off + 24 : n;
            i64 h = find(p, off, lim, " obj");
            if (h < 0) return -1;
            i64 end = find(p, h, n, "endobj");
            if (end < 0) return -1;
            t->starts[first + k] = h + 4;
            t->ends[first + k] = end;
            any = 1;
        }
        scan = q + 20 * count;
    }
    return any ? 0 : -1;
}

/* ---- page tree walk (mirror of _page_numbers_via_tree) ------------------ */

/* match "/Type <ws> /Page" (not Pages) or "/Type <ws> /Pages" in [s, lim):
 * returns 1 = Page, 2 = Pages, 0 = neither. Mirrors the Python walk, which
 * searches for the Pages pattern FIRST anywhere in the window, so a body
 * containing both classifies as Pages regardless of order. */
static int page_kind(const u8 *p, i64 s, i64 lim) {
    int kind = 0;
    i64 i = s;
    while (1) {
        i64 t = find(p, i, lim, "/Type");
        if (t < 0) return kind;
        i64 q = t + 5;
        while (q < lim && is_ws(p[q])) q++;
        if (q + 5 <= lim && memcmp(p + q, "/Page", 5) == 0) {
            i64 after = q + 5;
            if (after < lim && p[after] == 's') {
                if (after + 1 >= lim || !is_word(p[after + 1])) return 2;
            } else if (after >= lim || !is_word(p[after])) {
                if (kind == 0) kind = 1; /* Pages may still appear later */
            }
        }
        i = t + 5;
    }
}

/* /Root|/Pages|/Contents reference: find key then parse "(\d+)\s+0\s+R";
 * returns objnum or -1. *found_at gets the position AFTER the match (for
 * finditer-style iteration). */
static i64 ref_after_key(const u8 *p, i64 s, i64 e, const char *key,
                         i64 *next) {
    i64 k = find(p, s, e, key);
    while (k >= 0) {
        i64 q = k + (i64)strlen(key);
        i64 w = skip_ws_min1(p, e, q);
        if (w > 0) {
            i64 num = parse_int(p, e, &w);
            if (num >= 0) {
                i64 w2 = skip_ws_min1(p, e, w);
                if (w2 > 0 && w2 < e && p[w2] == '0') {
                    i64 w3 = skip_ws_min1(p, e, w2 + 1);
                    if (w3 > 0 && w3 < e && p[w3] == 'R') {
                        if (next) *next = w3 + 1;
                        return num;
                    }
                }
            }
        }
        k = find(p, k + 1, e, key);
    }
    return -1;
}

/* ---- content-stream resolution ------------------------------------------ */

/* locate stream data for content object body [s, e); returns 0 ok / -1.
 * data/dlen reference payload bytes (no copy); flate set if FlateDecode */
static int stream_slice(const u8 *p, i64 s, i64 e, const u8 **data,
                        i64 *dlen, int *flate) {
    /* \bstream\r?\n */
    i64 sm = s;
    while (1) {
        sm = find(p, sm, e, "stream");
        if (sm < 0) return -1;
        if (sm > 0 && is_word(p[sm - 1])) { sm += 6; continue; }
        i64 after = sm + 6;
        if (after < e && p[after] == '\r') after++;
        if (after >= e || p[after] != '\n') { sm += 6; continue; }
        i64 head_end = sm;
        i64 dstart = after + 1;
        /* /Length \d+ within the dict part */
        i64 lp = find(p, s, head_end, "/Length");
        i64 len = -1;
        if (lp >= 0) {
            i64 q = skip_ws_min1(p, head_end, lp + 7);
            if (q > 0) len = parse_int(p, head_end, &q);
        }
        if (len >= 0) {
            if (dstart + len > e) return -1;
            *data = p + dstart;
            *dlen = len;
        } else {
            /* stream\r?\n(.*?)\r?\nendstream — first endstream, strip \r?\n */
            i64 es = find(p, dstart, e, "endstream");
            if (es < 0) return -1;
            i64 dend = es;
            if (dend > dstart && p[dend - 1] == '\n') {
                dend--;
                if (dend > dstart && p[dend - 1] == '\r') dend--;
            } else {
                return -1; /* regex requires \r?\nendstream */
            }
            *data = p + dstart;
            *dlen = dend - dstart;
        }
        *flate = find(p, s, head_end, "/FlateDecode") >= 0;
        return 0;
    }
}

/* zlib-inflate src into a malloc'd buffer; caller frees. -1 on error. */
static i64 inflate_buf(const u8 *src, i64 slen, u8 **out) {
    i64 cap = slen * 4 + 1024;
    if (cap > (i64)1 << 26) cap = (i64)1 << 26;
    u8 *buf = (u8 *)malloc((size_t)cap);
    if (!buf) return -1;
    z_stream zs;
    memset(&zs, 0, sizeof(zs));
    if (inflateInit(&zs) != Z_OK) { free(buf); return -1; }
    zs.next_in = (Bytef *)src;
    zs.avail_in = (uInt)slen;
    i64 total = 0;
    while (1) {
        zs.next_out = buf + total;
        zs.avail_out = (uInt)(cap - total);
        int r = inflate(&zs, Z_FINISH);
        total = (i64)zs.total_out;
        if (r == Z_STREAM_END) break;
        if (r == Z_OK || r == Z_BUF_ERROR) {
            if (cap >= (i64)1 << 28) { inflateEnd(&zs); free(buf); return -1; }
            cap *= 2;
            u8 *nb = (u8 *)realloc(buf, (size_t)cap);
            if (!nb) { inflateEnd(&zs); free(buf); return -1; }
            buf = nb;
            continue;
        }
        inflateEnd(&zs);
        free(buf);
        return -1;
    }
    inflateEnd(&zs);
    *out = buf;
    return total;
}

/* ---- content tokenizer (mirror of _RE_TEXTOP semantics) ----------------- */

/* PDF string at p[i] (p[i]=='('): returns end index AFTER ')' or -1.
 * class: \((?:\\.|[^\\()])*\)  — no nesting, \\. eats any byte. */
static i64 string_end(const u8 *p, i64 n, i64 i) {
    i64 q = i + 1;
    while (q < n) {
        u8 c = p[q];
        if (c == '\\') {
            if (q + 1 >= n) return -1;
            q += 2;
        } else if (c == ')') {
            return q + 1;
        } else if (c == '(') {
            return -1;
        } else {
            q++;
        }
    }
    return -1;
}

typedef struct {
    u8 *text;       /* unescaped span bytes, joined with '\n' */
    i64 text_cap, text_len;
    i64 n_spans;
    i64 n_rects;
    int overflow;
} Emit;

/* unescape string body p[s+1 .. e-2] into em->text (mirror of _unescape),
 * after a '\n' separator unless it is the first span */
static void emit_span(Emit *em, const u8 *p, i64 s, i64 e) {
    if (em->n_spans > 0) {
        if (em->text_len >= em->text_cap) { em->overflow = 1; return; }
        em->text[em->text_len++] = '\n';
    }
    i64 i = s + 1, stop = e - 1;
    while (i < stop) {
        u8 c = p[i];
        u8 outb;
        if (c == '\\' && i + 1 < stop) {
            u8 d = p[i + 1];
            if (d >= '0' && d <= '7') {
                int v = 0, k = 0;
                i64 j = i + 1;
                while (j < stop && k < 3 && p[j] >= '0' && p[j] <= '7') {
                    v = v * 8 + (p[j] - '0');
                    j++;
                    k++;
                }
                outb = (u8)(v & 0xFF);
                i = j;
            } else {
                switch (d) {
                    case 'n': outb = '\n'; break;
                    case 'r': outb = '\r'; break;
                    case 't': outb = '\t'; break;
                    case 'b': outb = '\b'; break;
                    case 'f': outb = '\f'; break;
                    default: outb = d; break;
                }
                i += 2;
            }
        } else {
            outb = c;
            i++;
        }
        if (em->text_len >= em->text_cap) { em->overflow = 1; return; }
        em->text[em->text_len++] = outb;
    }
    em->n_spans++;
}

/* number token [\d.+-]+ at i; returns end or -1 */
static i64 num_end(const u8 *p, i64 n, i64 i) {
    if (i >= n || !is_numch(p[i])) return -1;
    while (i < n && is_numch(p[i])) i++;
    return i;
}

/* try "NUM \s+ "*4 then "re" at i; returns match end or -1 */
static i64 try_rect(const u8 *p, i64 n, i64 i) {
    for (int k = 0; k < 4; k++) {
        i64 e = num_end(p, n, i);
        if (e < 0) return -1;
        i64 w = skip_ws_min1(p, n, e);
        if (w < 0) return -1;
        i = w;
    }
    if (i + 2 <= n && p[i] == 'r' && p[i + 1] == 'e') return i + 2;
    return -1;
}

static void tokenize(const u8 *p, i64 n, Emit *em) {
    i64 i = 0;
    while (i < n && !em->overflow) {
        u8 c = p[i];
        if (c == '(') {
            /* STRING \s* Tj */
            i64 se = string_end(p, n, i);
            if (se > 0) {
                i64 q = se;
                while (q < n && is_ws(p[q])) q++;
                if (q + 2 <= n && p[q] == 'T' && p[q + 1] == 'j') {
                    emit_span(em, p, i, se);
                    i = q + 2;
                    continue;
                }
            }
            i++;
        } else if (c == '[') {
            /* \[((?:STRING|[^\]])*)\]\s*TJ — array end = first ']' not
             * inside a valid string */
            i64 q = i + 1;
            i64 close = -1;
            while (q < n) {
                u8 d = p[q];
                if (d == ']') { close = q; break; }
                if (d == '(') {
                    i64 se = string_end(p, n, q);
                    q = se > 0 ? se : q + 1;
                } else {
                    q++;
                }
            }
            if (close >= 0) {
                i64 w = close + 1;
                while (w < n && is_ws(p[w])) w++;
                if (w + 2 <= n && p[w] == 'T' && p[w + 1] == 'J') {
                    /* emit every valid string inside [i+1, close) */
                    i64 s2 = i + 1;
                    while (s2 < close && !em->overflow) {
                        if (p[s2] == '(') {
                            i64 se = string_end(p, close, s2);
                            if (se > 0) {
                                emit_span(em, p, s2, se);
                                s2 = se;
                                continue;
                            }
                        }
                        s2++;
                    }
                    i = w + 2;
                    continue;
                }
            }
            i++;
        } else if (is_numch(c)) {
            i64 re_end = try_rect(p, n, i);
            if (re_end > 0) {
                em->n_rects++;
                i = re_end;
                continue;
            }
            i++;
        } else {
            i++;
        }
    }
}

/* ---- one payload --------------------------------------------------------- */

/* joined span text of one payload into em (which starts empty); returns 0 ok,
 * -1 structural surprise, -2 em->text overflow. meta out: [num_pages,
 * n_text_spans, n_rects]. */
static i64 layout_spans(const u8 *payload, i64 n, Emit *em, i64 *meta) {
    meta[0] = meta[1] = meta[2] = 0;
    if (n < 5 || memcmp(payload, "%PDF-", 5) != 0) return -1;
    ObjTable tab = {0};
    i64 ret = -1;
    i64 *stack = NULL, *pages = NULL;
    u8 *visited = NULL;
    if (spans_via_xref(payload, n, &tab) != 0) goto done;

    /* /Root from the trailer */
    {
        i64 tpos = rfind(payload, n, "trailer");
        i64 root = ref_after_key(payload, tpos >= 0 ? tpos : 0, n, "/Root",
                                 NULL);
        if (root < 0) goto done;
        i64 cs, ce;
        if (!obj_lookup(&tab, root, &cs, &ce)) goto done;
        i64 pages_num = ref_after_key(payload, cs, ce, "/Pages", NULL);
        if (pages_num < 0) goto done;

        /* DFS page-tree walk in document order */
        i64 scap = tab.cap + 8;
        stack = (i64 *)malloc(sizeof(i64) * (size_t)scap);
        pages = (i64 *)malloc(sizeof(i64) * (size_t)scap);
        visited = (u8 *)calloc((size_t)tab.cap, 1);
        if (!stack || !pages || !visited) goto done;
        i64 sp = 0, n_pages = 0;
        stack[sp++] = pages_num;
        while (sp > 0) {
            i64 num = stack[--sp];
            if (num < 0 || num >= tab.cap || visited[num]) goto done;
            visited[num] = 1;
            i64 s, e;
            if (!obj_lookup(&tab, num, &s, &e)) goto done;
            i64 lim = s + 512 < e ? s + 512 : e;
            int kind = page_kind(payload, s, lim);
            if (kind == 2) {
                /* /Kids\s*\[([^\]]*)\] */
                i64 kp = find(payload, s, e, "/Kids");
                if (kp < 0) goto done;
                i64 q = kp + 5;
                while (q < e && is_ws(payload[q])) q++;
                if (q >= e || payload[q] != '[') goto done;
                i64 kb = q + 1;
                i64 ke = find(payload, kb, e, "]");
                if (ke < 0) goto done;
                /* collect kid refs (\d+)\s+0\s+R inside [kb, ke), pushed
                 * then reversed for document-order DFS */
                i64 kn0 = sp;
                i64 q2 = kb, kcount = 0;
                while (q2 < ke) {
                    if (is_digit(payload[q2]) &&
                        (q2 == kb || !is_numch(payload[q2 - 1]))) {
                        i64 pos2 = q2;
                        i64 v = parse_int(payload, ke, &pos2);
                        i64 w = skip_ws_min1(payload, ke, pos2);
                        if (v >= 0 && w > 0 && w < ke && payload[w] == '0') {
                            i64 w2 = skip_ws_min1(payload, ke, w + 1);
                            if (w2 > 0 && w2 < ke && payload[w2] == 'R') {
                                if (sp >= scap) goto done;
                                stack[sp++] = v;
                                kcount++;
                                q2 = w2 + 1;
                                continue;
                            }
                        }
                        q2 = pos2;
                    } else {
                        q2++;
                    }
                }
                if (kcount == 0) goto done;
                /* reverse the newly pushed kids so DFS pops in order */
                for (i64 a = kn0, b = sp - 1; a < b; a++, b--) {
                    i64 t2 = stack[a];
                    stack[a] = stack[b];
                    stack[b] = t2;
                }
            } else if (kind == 1) {
                if (n_pages >= scap) goto done;
                pages[n_pages++] = num;
            } else {
                goto done;
            }
        }
        if (n_pages == 0) goto done;

        /* per page: every /Contents ref, in order */
        for (i64 pi = 0; pi < n_pages; pi++) {
            i64 s, e;
            if (!obj_lookup(&tab, pages[pi], &s, &e)) goto done;
            /* every "/Contents" in the page must be followed by a fully
             * well-formed single ref "N 0 R" — otherwise decline to Python,
             * which either parses the array form or raises PdfError. A
             * silent skip here would diverge from Python's strictness on
             * mangled refs (found by mutation fuzz). */
            {
                i64 ck = find(payload, s, e, "/Contents");
                while (ck >= 0) {
                    i64 w = ck + 9;
                    while (w < e && is_ws(payload[w])) w++;
                    int ok = 0;
                    if (w < e && is_digit(payload[w])) {
                        i64 q = w;
                        i64 num = parse_int(payload, e, &q);
                        i64 q2 = skip_ws_min1(payload, e, q);
                        if (num >= 0 && q2 > 0 && q2 < e && payload[q2] == '0') {
                            i64 q3 = skip_ws_min1(payload, e, q2 + 1);
                            if (q3 > 0 && q3 < e && payload[q3] == 'R') ok = 1;
                        }
                    }
                    if (!ok) goto done;
                    ck = find(payload, ck + 9, e, "/Contents");
                }
            }
            i64 from = s;
            while (1) {
                i64 nxt;
                i64 cnum = ref_after_key(payload, from, e, "/Contents", &nxt);
                if (cnum < 0) break;
                from = nxt;
                i64 cs2, ce2;
                if (!obj_lookup(&tab, cnum, &cs2, &ce2)) goto done;
                const u8 *data;
                i64 dlen;
                int flate;
                if (stream_slice(payload, cs2, ce2, &data, &dlen, &flate) != 0)
                    goto done;
                if (flate) {
                    u8 *dec = NULL;
                    i64 declen = inflate_buf(data, dlen, &dec);
                    if (declen < 0) goto done;
                    tokenize(dec, declen, em);
                    free(dec);
                } else {
                    tokenize(data, dlen, em);
                }
                if (em->overflow) { ret = -2; goto done; }
            }
        }
        meta[0] = n_pages;
        meta[1] = em->n_spans;
        meta[2] = em->n_rects;
        ret = 0;
    }

done:
    free(tab.starts);
    free(tab.ends);
    free(stack);
    free(pages);
    free(visited);
    return ret;
}

/* ---- entry --------------------------------------------------------------- */

/* one ref's text may not exceed this: past it the ref declines, whatever the
 * caller's buffer, so a ref's result never depends on its batch */
#define REF_TEXT_MAX ((i64)1 << 28)

i64 hpr_pdf_layout_batch(const u8 *blob, const i64 *offsets, i64 n_refs,
                         u8 *text_out, i64 text_cap, i64 *text_offs,
                         i64 *meta) {
    i64 at = 0;
    text_offs[0] = 0;
    for (i64 r = 0; r < n_refs; r++) {
        i64 room = text_cap - at;
        Emit em = {text_out + at, room < REF_TEXT_MAX ? room : REF_TEXT_MAX,
                   0, 0, 0, 0};
        i64 *m = meta + 4 * r;
        i64 rc = layout_spans(blob + offsets[r], offsets[r + 1] - offsets[r],
                              &em, m + 1);
        if (rc == -2 && room <= REF_TEXT_MAX) return -2;
        m[0] = rc == 0;
        if (rc == 0) at += em.text_len;
        text_offs[r + 1] = at;
    }
    return 0;
}

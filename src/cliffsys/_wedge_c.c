/* Compiled twin of _wedge_py: wedge accumulation over bitmask monomials, and
 * the JSON wire format of integral forms.
 *
 * Masks must fit in MASK_BITS = 64 bits, coefficients in 31 bits
 * (|c| < 2^31) and every accumulated value in 62 bits (|acc| < 2^62).  The
 * wire format takes coefficients with |c| < 2^63 and only canonical integer
 * documents.  Anything outside that range raises OverflowError;
 * cliffsys.kernel then repeats the whole computation on the pure-Python
 * side, so results stay exact.
 *
 * Sums go into an open-addressing table: linear probing over a power-of-two
 * array of (mask, value) slots, grown at half load.  Mask 0 marks an empty
 * slot, so the degree-0 monomial (mask 0) is kept in its own field.
 */

#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <stdint.h>

#define MASK_BITS 64
#define COEFF_LIMIT ((int64_t)1 << 31)
#define ACC_LIMIT ((int64_t)1 << 62)

/* -- accumulation table ------------------------------------------------------ */

typedef struct {
    uint64_t key; /* 0: empty */
    int64_t val;
} slot_t;

typedef struct {
    slot_t *slots;
    size_t mask;  /* capacity - 1 */
    int shift;    /* 64 - log2(capacity) */
    size_t len;   /* occupied slots */
    int64_t zero_val; /* the value of mask 0 */
} table_t;

/* An empty table that takes `expected` keys without growing. */
static int
table_init(table_t *t, size_t expected)
{
    t->mask = 15;
    t->shift = 60;
    while (t->mask + 1 < 2 * expected) {
        t->mask = 2 * t->mask + 1;
        t->shift -= 1;
    }
    t->len = 0;
    t->zero_val = 0;
    t->slots = PyMem_Calloc(t->mask + 1, sizeof(slot_t));
    if (t->slots == NULL) {
        PyErr_NoMemory();
        return -1;
    }
    return 0;
}

static void
table_free(table_t *t)
{
    PyMem_Free(t->slots);
    t->slots = NULL;
}

static inline size_t
table_home(const table_t *t, uint64_t key)
{
    /* Fibonacci hashing: the top bits of key * 2^64/phi. */
    return (size_t)((key * 0x9E3779B97F4A7C15ull) >> t->shift);
}

static int
table_grow(table_t *t)
{
    size_t old_cap = t->mask + 1;
    slot_t *old = t->slots;
    slot_t *fresh = PyMem_Calloc(2 * old_cap, sizeof(slot_t));
    if (fresh == NULL) {
        PyErr_NoMemory();
        return -1;
    }
    t->slots = fresh;
    t->mask = 2 * old_cap - 1;
    t->shift -= 1;
    for (size_t i = 0; i < old_cap; i++) {
        if (old[i].key) {
            size_t j = table_home(t, old[i].key);
            while (fresh[j].key)
                j = (j + 1) & t->mask;
            fresh[j] = old[i];
        }
    }
    PyMem_Free(old);
    return 0;
}

/* acc[key] += v; -1 with an exception set on overflow or out of memory. */
static inline int
table_add(table_t *t, uint64_t key, int64_t v)
{
    int64_t *val;
    if (key == 0) {
        val = &t->zero_val;
    }
    else {
        size_t i = table_home(t, key);
        while (t->slots[i].key != key) {
            if (t->slots[i].key == 0) {
                if (2 * (t->len + 1) > t->mask + 1) {
                    if (table_grow(t) < 0)
                        return -1;
                    i = table_home(t, key);
                    while (t->slots[i].key)
                        i = (i + 1) & t->mask;
                }
                t->slots[i].key = key;
                t->len++;
                break;
            }
            i = (i + 1) & t->mask;
        }
        val = &t->slots[i].val;
    }
    int64_t sum;
    if (__builtin_add_overflow(*val, v, &sum) || sum >= ACC_LIMIT || sum <= -ACC_LIMIT) {
        PyErr_SetString(PyExc_OverflowError, "accumulator out of compiled-kernel range");
        return -1;
    }
    *val = sum;
    return 0;
}

/* The loops below queue their (key, value) pairs in a batch and prefetch each
 * key's home slot as the key is made, so that by the time the batch is added
 * to the table, in queue order, most of its slots are in cache. */
#define BATCH 32

typedef struct {
    int len;
    uint64_t key[BATCH];
    int64_t val[BATCH];
} batch_t;

/* Add the queued pairs to t in order; -1 as table_add. */
static int
batch_flush(table_t *t, batch_t *q)
{
    for (int i = 0; i < q->len; i++) {
        if (table_add(t, q->key[i], q->val[i]) < 0)
            return -1;
    }
    q->len = 0;
    return 0;
}

/* Queue acc[key] += v if keep is 1 (0: drop it), flushing a full batch. */
static inline int
batch_put(table_t *t, batch_t *q, uint64_t key, int64_t v, int keep)
{
    __builtin_prefetch(&t->slots[table_home(t, key)], 1);
    q->key[q->len] = key;
    q->val[q->len] = v;
    q->len += keep;
    return q->len == BATCH ? batch_flush(t, q) : 0;
}

/* v, negated when the parity bit is set. */
static inline int64_t
signed_by(int64_t v, uint64_t parity)
{
    int64_t neg = -(int64_t)(parity & 1);
    return (v ^ neg) - neg;
}

static PyObject *
term_tuple(uint64_t key, int64_t val)
{
    PyObject *m = PyLong_FromUnsignedLongLong(key);
    PyObject *c = PyLong_FromLongLong(val);
    PyObject *pair = (m && c) ? PyTuple_Pack(2, m, c) : NULL;
    Py_XDECREF(m);
    Py_XDECREF(c);
    return pair;
}

/* The nonzero entries as a list of (mask, coeff) tuples. */
static PyObject *
table_items(const table_t *t)
{
    Py_ssize_t count = t->zero_val != 0;
    for (size_t i = 0; i <= t->mask; i++)
        count += t->slots[i].key && t->slots[i].val;
    PyObject *out = PyList_New(count);
    if (out == NULL)
        return NULL;
    Py_ssize_t pos = 0;
    if (t->zero_val) {
        PyObject *pair = term_tuple(0, t->zero_val);
        if (pair == NULL)
            goto fail;
        PyList_SET_ITEM(out, pos++, pair);
    }
    for (size_t i = 0; i <= t->mask; i++) {
        if (t->slots[i].key && t->slots[i].val) {
            PyObject *pair = term_tuple(t->slots[i].key, t->slots[i].val);
            if (pair == NULL)
                goto fail;
            PyList_SET_ITEM(out, pos++, pair);
        }
    }
    return out;
fail:
    Py_DECREF(out);
    return NULL;
}

/* -- term lists ---------------------------------------------------------------- */

typedef struct {
    Py_ssize_t n;
    uint64_t *masks;
    int64_t *coeffs;
    uint64_t *below; /* below_parity(masks[i]) */
} terms_t;

/* Bit x is set when mb has an odd number of bits below x.  The sign of
 * merging sorted ma before sorted mb is then the parity of ma & below(mb):
 * the count of pairs x in ma, y in mb with x > y. */
static inline uint64_t
below_parity(uint64_t mb)
{
    uint64_t p = mb << 1;
    p ^= p << 1;
    p ^= p << 2;
    p ^= p << 4;
    p ^= p << 8;
    p ^= p << 16;
    p ^= p << 32;
    return p;
}

static void
terms_free(terms_t *t)
{
    PyMem_Free(t->masks); /* one block holds all three arrays */
}

/* Read [(mask, coeff), ...] into flat arrays; -1 with an exception set. */
static int
terms_load(PyObject *seq, terms_t *out)
{
    PyObject *fast = PySequence_Fast(seq, "terms must be a sequence of (mask, coeff) pairs");
    if (fast == NULL)
        return -1;
    Py_ssize_t n = PySequence_Fast_GET_SIZE(fast);
    out->n = n;
    out->masks = PyMem_Calloc(3 * n + 1, sizeof(uint64_t));
    if (out->masks == NULL) {
        Py_DECREF(fast);
        PyErr_NoMemory();
        return -1;
    }
    out->coeffs = (int64_t *)(out->masks + n);
    out->below = out->masks + 2 * n;
    for (Py_ssize_t i = 0; i < n; i++) {
        PyObject *pair = PySequence_Fast(PySequence_Fast_GET_ITEM(fast, i),
                                         "a term must be a (mask, coeff) pair");
        if (pair == NULL)
            goto fail;
        if (PySequence_Fast_GET_SIZE(pair) != 2) {
            Py_DECREF(pair);
            PyErr_SetString(PyExc_ValueError, "a term must be a (mask, coeff) pair");
            goto fail;
        }
        /* masks of 64 bits and more raise OverflowError here */
        uint64_t m = PyLong_AsUnsignedLongLong(PySequence_Fast_GET_ITEM(pair, 0));
        if (m == (uint64_t)-1 && PyErr_Occurred()) {
            Py_DECREF(pair);
            goto fail;
        }
        int64_t c = PyLong_AsLongLong(PySequence_Fast_GET_ITEM(pair, 1));
        Py_DECREF(pair);
        if (c == -1 && PyErr_Occurred())
            goto fail;
        if (c >= COEFF_LIMIT || c <= -COEFF_LIMIT) {
            PyErr_SetString(PyExc_OverflowError, "coefficient out of compiled-kernel range");
            goto fail;
        }
        out->masks[i] = m;
        out->coeffs[i] = c;
        out->below[i] = below_parity(m);
    }
    Py_DECREF(fast);
    return 0;
fail:
    Py_DECREF(fast);
    terms_free(out);
    return -1;
}

/* -- accumulation loops ---------------------------------------------------------- */

/* a ^ b into t.  With square set, b is a and only the cross terms of a ^ a
 * are taken, each pair once and doubled (for an even-degree a). */
static int
accumulate(table_t *t, const terms_t *a, const terms_t *b, int square)
{
    batch_t q = {.len = 0};
    for (Py_ssize_t i = 0; i < a->n; i++) {
        uint64_t ma = a->masks[i];
        /* |ca| < 2^32 and |coeffs[j]| < 2^31, so every product fits in int64 */
        int64_t ca = square ? 2 * a->coeffs[i] : a->coeffs[i];
        for (Py_ssize_t j = square ? i + 1 : 0; j < b->n; j++) {
            uint64_t mb = b->masks[j];
            int64_t v = signed_by(ca * b->coeffs[j], __builtin_popcountll(ma & b->below[j]));
            if (batch_put(t, &q, ma | mb, v, (ma & mb) == 0) < 0)
                return -1;
        }
    }
    return batch_flush(t, &q);
}

/* Accumulate ta ^ tb into t, or the square of ta when tb is NULL. */
static int
accumulate_lists(table_t *t, PyObject *ta, PyObject *tb)
{
    terms_t a, b;
    if (terms_load(ta, &a) < 0)
        return -1;
    if (tb == NULL) {
        int rc = accumulate(t, &a, &a, 1);
        terms_free(&a);
        return rc;
    }
    if (terms_load(tb, &b) < 0) {
        terms_free(&a);
        return -1;
    }
    int rc = accumulate(t, &a, &b, 0);
    terms_free(&a);
    terms_free(&b);
    return rc;
}

/* -- Accumulator type ------------------------------------------------------------ */

typedef struct {
    PyObject_HEAD
    table_t table;
} AccumulatorObject;

static PyObject *
Accumulator_new(PyTypeObject *type, PyObject *args, PyObject *kwds)
{
    if (PyTuple_GET_SIZE(args) || (kwds && PyDict_GET_SIZE(kwds))) {
        PyErr_SetString(PyExc_TypeError, "Accumulator() takes no arguments");
        return NULL;
    }
    AccumulatorObject *self = (AccumulatorObject *)type->tp_alloc(type, 0);
    if (self == NULL)
        return NULL;
    if (table_init(&self->table, 0) < 0) {
        Py_DECREF(self);
        return NULL;
    }
    return (PyObject *)self;
}

static void
Accumulator_dealloc(AccumulatorObject *self)
{
    table_free(&self->table);
    Py_TYPE(self)->tp_free((PyObject *)self);
}

static PyObject *
Accumulator_add_product(AccumulatorObject *self, PyObject *args)
{
    PyObject *ta, *tb;
    if (!PyArg_ParseTuple(args, "OO:add_product", &ta, &tb))
        return NULL;
    if (accumulate_lists(&self->table, ta, tb) < 0)
        return NULL;
    Py_RETURN_NONE;
}

static PyObject *
Accumulator_add_square(AccumulatorObject *self, PyObject *ta)
{
    if (accumulate_lists(&self->table, ta, NULL) < 0)
        return NULL;
    Py_RETURN_NONE;
}

static PyObject *
Accumulator_items(AccumulatorObject *self, PyObject *Py_UNUSED(ignored))
{
    return table_items(&self->table);
}

static PyMethodDef Accumulator_methods[] = {
    {"add_product", (PyCFunction)Accumulator_add_product, METH_VARARGS,
     "Accumulate the wedge product of two term lists."},
    {"add_square", (PyCFunction)Accumulator_add_square, METH_O,
     "Accumulate t ^ t for an even-degree term list (cross terms doubled)."},
    {"items", (PyCFunction)Accumulator_items, METH_NOARGS,
     "The nonzero accumulated terms as [(mask, coeff), ...]."},
    {NULL, NULL, 0, NULL},
};

static PyTypeObject AccumulatorType = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "cliffsys._wedge_c.Accumulator",
    .tp_doc = "Mutable term accumulator shared across many wedge operations.",
    .tp_basicsize = sizeof(AccumulatorObject),
    .tp_flags = Py_TPFLAGS_DEFAULT,
    .tp_new = Accumulator_new,
    .tp_dealloc = (destructor)Accumulator_dealloc,
    .tp_methods = Accumulator_methods,
};

/* -- module functions ------------------------------------------------------------ */

/* Letter i of a monomial becomes perm[i] with factor -signs[i], resorted with
 * its crossing sign.  A letter this kernel cannot take (i >= len(perm), a
 * target outside 0..63, |sign| >= 2^31) raises OverflowError, and the pure
 * kernel decides. */
static int
perm_action(table_t *t, const terms_t *a, const int *target, const int64_t *factor)
{
    batch_t q = {.len = 0};
    for (Py_ssize_t idx = 0; idx < a->n; idx++) {
        uint64_t mask = a->masks[idx];
        int64_t c = a->coeffs[idx];
        for (uint64_t m = mask; m; m &= m - 1) {
            int i = __builtin_ctzll(m);
            int j = target[i];
            if (j < 0) { /* the letters before this one are added first */
                if (batch_flush(t, &q) == 0)
                    PyErr_SetString(PyExc_OverflowError, "letter out of compiled-kernel range");
                return -1;
            }
            uint64_t without = mask & ~((uint64_t)1 << i);
            uint64_t jbit = (uint64_t)1 << j;
            int lo = i < j ? i : j, hi = i < j ? j : i;
            /* the letters strictly between lo and hi; none when j == i, so
             * then the key is mask and the sign is kept */
            uint64_t between = (((uint64_t)1 << hi) - 1) & ~(((uint64_t)2 << lo) - 1);
            /* |c| and |factor[i]| are below 2^31, so the product fits in int64 */
            int64_t v = signed_by(c * factor[i], __builtin_popcountll(without & between));
            if (batch_put(t, &q, without | jbit, v, (without & jbit) == 0) < 0)
                return -1;
        }
    }
    return batch_flush(t, &q);
}

static PyObject *
signed_perm_action(PyObject *module, PyObject *args)
{
    PyObject *terms, *perm_obj, *signs_obj;
    if (!PyArg_ParseTuple(args, "OOO:signed_perm_action", &terms, &perm_obj, &signs_obj))
        return NULL;
    int target[MASK_BITS]; /* -1: letter left to the pure kernel */
    int64_t factor[MASK_BITS];
    for (int i = 0; i < MASK_BITS; i++)
        target[i] = -1;
    PyObject *perm = PySequence_Fast(perm_obj, "perm must be a sequence");
    if (perm == NULL)
        return NULL;
    PyObject *signs = PySequence_Fast(signs_obj, "signs must be a sequence");
    if (signs == NULL) {
        Py_DECREF(perm);
        return NULL;
    }
    Py_ssize_t n = PySequence_Fast_GET_SIZE(perm);
    if (PySequence_Fast_GET_SIZE(signs) < n)
        n = PySequence_Fast_GET_SIZE(signs);
    if (n > MASK_BITS)
        n = MASK_BITS;
    for (Py_ssize_t i = 0; i < n; i++) {
        long long j = PyLong_AsLongLong(PySequence_Fast_GET_ITEM(perm, i));
        if (j == -1 && PyErr_Occurred())
            break;
        long long s = PyLong_AsLongLong(PySequence_Fast_GET_ITEM(signs, i));
        if (s == -1 && PyErr_Occurred())
            break;
        int usable = 0 <= j && j < MASK_BITS && -COEFF_LIMIT < s && s < COEFF_LIMIT;
        target[i] = usable ? (int)j : -1;
        factor[i] = usable ? -s : 0;
    }
    Py_DECREF(perm);
    Py_DECREF(signs);
    if (PyErr_Occurred())
        return NULL;

    terms_t a;
    table_t t;
    if (terms_load(terms, &a) < 0)
        return NULL;
    PyObject *out = NULL;
    if (table_init(&t, (size_t)a.n) == 0) {
        if (perm_action(&t, &a, target, factor) == 0)
            out = table_items(&t);
        table_free(&t);
    }
    terms_free(&a);
    return out;
}

/* -- wire format ------------------------------------------------------------------ */

/* The layout of json.dumps(form_to_json(a), indent=2) + "\n". */
#define HEAD_N "{\n  \"N\": "
#define HEAD_K ",\n  \"k\": "
#define HEAD_TERMS ",\n  \"terms\": "
#define NO_TERMS "[]\n}\n"
#define TERMS_OPEN "[\n"
#define TERMS_SEP ",\n"
#define TERMS_CLOSE "\n  ]\n}\n"
#define TERM_OPEN "    {\n      \"idx\": "
#define NO_IDX "[]"
#define IDX_OPEN "[\n"
#define IDX_LINE "        "
#define IDX_SEP ",\n"
#define IDX_CLOSE "\n      ]"
#define TERM_C ",\n      \"c\": \""
#define TERM_CLOSE "\"\n    }"
#define LIT_LEN(s) (sizeof(s) - 1)

static PyObject *
decline(const char *what)
{
    PyErr_SetString(PyExc_OverflowError, what);
    return NULL;
}

static inline uint64_t
bit_reverse(uint64_t x)
{
    x = (x >> 1 & 0x5555555555555555ull) | (x & 0x5555555555555555ull) << 1;
    x = (x >> 2 & 0x3333333333333333ull) | (x & 0x3333333333333333ull) << 2;
    x = (x >> 4 & 0x0F0F0F0F0F0F0F0Full) | (x & 0x0F0F0F0F0F0F0F0Full) << 4;
    return __builtin_bswap64(x);
}

static size_t
decimal_len(uint64_t v)
{
    size_t len = 1;
    while (v >= 10) {
        v /= 10;
        len++;
    }
    return len;
}

static char *
put_decimal(char *p, uint64_t v)
{
    char *end = p + decimal_len(v);
    char *q = end;
    do {
        *--q = (char)('0' + v % 10);
        v /= 10;
    } while (v);
    return end;
}

static char *
put(char *p, const char *s, size_t len)
{
    memcpy(p, s, len);
    return p + len;
}

#define PUT(p, lit) put((p), (lit), LIT_LEN(lit))

typedef struct {
    uint64_t rev; /* the mask, bit-reversed */
    int64_t val;
} wire_term_t;

/* Lexicographic order of index tuples: for one degree, the descending order
 * of the bit-reversed masks. */
static int
wire_term_cmp(const void *pa, const void *pb)
{
    uint64_t a = ((const wire_term_t *)pa)->rev, b = ((const wire_term_t *)pb)->rev;
    return (a < b) - (a > b);
}

static size_t
term_len(uint64_t mask, int64_t val)
{
    size_t k = (size_t)__builtin_popcountll(mask);
    size_t len = LIT_LEN(TERM_OPEN) + LIT_LEN(TERM_C) + LIT_LEN(TERM_CLOSE);
    if (k == 0)
        len += LIT_LEN(NO_IDX);
    else /* indices 10..64, bits 9..63, take two digits */
        len += LIT_LEN(IDX_OPEN) + k * (LIT_LEN(IDX_LINE) + 1) + __builtin_popcountll(mask >> 9)
               + (k - 1) * LIT_LEN(IDX_SEP) + LIT_LEN(IDX_CLOSE);
    return len + (val < 0) + decimal_len(val < 0 ? -(uint64_t)val : (uint64_t)val);
}

static char *
put_term(char *p, uint64_t mask, int64_t val)
{
    p = PUT(p, TERM_OPEN);
    if (mask == 0) {
        p = PUT(p, NO_IDX);
    }
    else {
        p = PUT(p, IDX_OPEN);
        for (uint64_t m = mask; m; m &= m - 1) {
            if (m != mask)
                p = PUT(p, IDX_SEP);
            p = PUT(p, IDX_LINE);
            p = put_decimal(p, (uint64_t)__builtin_ctzll(m) + 1);
        }
        p = PUT(p, IDX_CLOSE);
    }
    p = PUT(p, TERM_C);
    if (val < 0)
        *p++ = '-';
    p = put_decimal(p, val < 0 ? -(uint64_t)val : (uint64_t)val);
    return PUT(p, TERM_CLOSE);
}

/* The terms {mask: int} of the k-form on R^n as an array in wire order, of
 * PyDict_GET_SIZE(terms) entries; NULL with an exception set.  Declines a
 * rational or |c| >= 2^63 coefficient and a mask of MASK_BITS bits or more. */
static wire_term_t *
wire_terms(Py_ssize_t n, Py_ssize_t k, PyObject *terms)
{
    if (n < 1 || n > MASK_BITS || k < 0) {
        decline("form out of compiled-kernel range");
        return NULL;
    }
    Py_ssize_t count = PyDict_GET_SIZE(terms);
    wire_term_t *items = PyMem_Malloc((count + 1) * sizeof(wire_term_t));
    if (items == NULL) {
        PyErr_NoMemory();
        return NULL;
    }
    PyObject *key, *value;
    Py_ssize_t pos = 0, i = 0; /* no Python code runs here, so terms keeps its size */
    while (PyDict_Next(terms, &pos, &key, &value)) {
        if (!PyLong_CheckExact(key) || !PyLong_CheckExact(value)) {
            decline("coefficient out of compiled-kernel range");
            goto fail;
        }
        uint64_t mask = PyLong_AsUnsignedLongLong(key); /* OverflowError past 64 bits */
        if (mask == (uint64_t)-1 && PyErr_Occurred())
            goto fail;
        int64_t val = PyLong_AsLongLong(value);
        if (val == -1 && PyErr_Occurred())
            goto fail;
        if (val == INT64_MIN) {
            decline("coefficient out of compiled-kernel range");
            goto fail;
        }
        items[i].rev = bit_reverse(mask);
        items[i].val = val;
        i++;
    }
    qsort(items, count, sizeof(wire_term_t), wire_term_cmp);
    return items;
fail:
    PyMem_Free(items);
    return NULL;
}

/* The text forms.form_to_json_text writes for the k-form on R^n with terms
 * {mask: int}; declines what wire_terms declines. */
static PyObject *
form_json_text(PyObject *module, PyObject *args)
{
    Py_ssize_t n, k;
    PyObject *terms;
    if (!PyArg_ParseTuple(args, "nnO!:form_json_text", &n, &k, &PyDict_Type, &terms))
        return NULL;
    wire_term_t *items = wire_terms(n, k, terms);
    if (items == NULL)
        return NULL;
    Py_ssize_t count = PyDict_GET_SIZE(terms);
    size_t len = LIT_LEN(HEAD_N) + decimal_len((uint64_t)n) + LIT_LEN(HEAD_K)
                 + decimal_len((uint64_t)k) + LIT_LEN(HEAD_TERMS);
    for (Py_ssize_t i = 0; i < count; i++)
        len += term_len(bit_reverse(items[i].rev), items[i].val);
    if (count == 0)
        len += LIT_LEN(NO_TERMS);
    else
        len += LIT_LEN(TERMS_OPEN) + (count - 1) * LIT_LEN(TERMS_SEP) + LIT_LEN(TERMS_CLOSE);

    PyObject *out = PyUnicode_New((Py_ssize_t)len, 127);
    if (out == NULL)
        goto done;
    char *start = (char *)PyUnicode_1BYTE_DATA(out), *p = start;
    p = PUT(p, HEAD_N);
    p = put_decimal(p, (uint64_t)n);
    p = PUT(p, HEAD_K);
    p = put_decimal(p, (uint64_t)k);
    p = PUT(p, HEAD_TERMS);
    if (count == 0) {
        p = PUT(p, NO_TERMS);
    }
    else {
        p = PUT(p, TERMS_OPEN);
        for (Py_ssize_t i = 0; i < count; i++) {
            if (i)
                p = PUT(p, TERMS_SEP);
            p = put_term(p, bit_reverse(items[i].rev), items[i].val);
        }
        p = PUT(p, TERMS_CLOSE);
    }
    if ((size_t)(p - start) != len) {
        Py_CLEAR(out);
        PyErr_SetString(PyExc_SystemError, "form_json_text: length mismatch");
    }
done:
    PyMem_Free(items);
    return out;
}

static PyObject *IDX_KEY, *C_KEY; /* "idx", "c" */

/* {"idx": [...], "c": "..."}, one term of forms.form_to_json. */
static PyObject *
term_dict(uint64_t mask, int64_t val)
{
    PyObject *idx = PyList_New(__builtin_popcountll(mask));
    if (idx == NULL)
        return NULL;
    Py_ssize_t j = 0;
    for (uint64_t m = mask; m; m &= m - 1) {
        PyObject *i = PyLong_FromLong(__builtin_ctzll(m) + 1);
        if (i == NULL) {
            Py_DECREF(idx);
            return NULL;
        }
        PyList_SET_ITEM(idx, j++, i);
    }
    uint64_t mag = val < 0 ? -(uint64_t)val : (uint64_t)val;
    PyObject *c = PyUnicode_New((Py_ssize_t)((val < 0) + decimal_len(mag)), 127);
    PyObject *term = c ? PyDict_New() : NULL;
    if (term != NULL) {
        char *p = (char *)PyUnicode_1BYTE_DATA(c);
        if (val < 0)
            *p++ = '-';
        put_decimal(p, mag);
        if (PyDict_SetItem(term, IDX_KEY, idx) < 0 || PyDict_SetItem(term, C_KEY, c) < 0)
            Py_CLEAR(term);
    }
    Py_DECREF(idx);
    Py_XDECREF(c);
    return term;
}

/* The dict forms.form_to_json returns for the k-form on R^n with terms
 * {mask: int}: {"N": n, "k": k, "terms": [...]}, the terms in wire order;
 * declines what wire_terms declines. */
static PyObject *
form_json_dict(PyObject *module, PyObject *args)
{
    Py_ssize_t n, k;
    PyObject *terms;
    if (!PyArg_ParseTuple(args, "nnO!:form_json_dict", &n, &k, &PyDict_Type, &terms))
        return NULL;
    wire_term_t *items = wire_terms(n, k, terms);
    if (items == NULL)
        return NULL;
    Py_ssize_t count = PyDict_GET_SIZE(terms);
    PyObject *out = NULL, *list = PyList_New(count);
    if (list == NULL)
        goto done;
    for (Py_ssize_t i = 0; i < count; i++) {
        PyObject *term = term_dict(bit_reverse(items[i].rev), items[i].val);
        if (term == NULL)
            goto done;
        PyList_SET_ITEM(list, i, term);
    }
    out = Py_BuildValue("{s:n,s:n,s:O}", "N", n, "k", k, "terms", list);
done:
    Py_XDECREF(list);
    PyMem_Free(items);
    return out;
}

/* The value of a canonical integer literal -?(0|[1-9][0-9]*) below 2^63 in
 * magnitude, other than "-0"; 0 when s is not one. */
static int
parse_coefficient(const char *s, Py_ssize_t len, int64_t *out)
{
    int neg = len > 0 && s[0] == '-';
    s += neg;
    len -= neg;
    if (len == 0 || len > 19 || (s[0] == '0' && (len > 1 || neg)))
        return 0;
    uint64_t v = 0; /* 19 digits stay below 2^64 */
    for (Py_ssize_t i = 0; i < len; i++) {
        if (s[i] < '0' || s[i] > '9')
            return 0;
        v = 10 * v + (uint64_t)(s[i] - '0');
    }
    if (v > (uint64_t)INT64_MAX)
        return 0;
    *out = neg ? -(int64_t)v : (int64_t)v;
    return 1;
}

/* The mask of one term {"idx": [...], "c": "..."} of a form document on R^n
 * of degree k, and its coefficient; 0 when the term is outside the canonical
 * integer subset this kernel reads. */
static int
read_term(PyObject *term, Py_ssize_t n, Py_ssize_t k, uint64_t *mask, int64_t *val)
{
    if (!PyDict_CheckExact(term))
        return 0;
    PyObject *idx = PyDict_GetItemWithError(term, IDX_KEY);
    PyObject *c = PyDict_GetItemWithError(term, C_KEY);
    if (idx == NULL || c == NULL || !PyList_CheckExact(idx) || PyList_GET_SIZE(idx) != k
        || !PyUnicode_CheckExact(c))
        return 0;
    uint64_t m = 0;
    long prev = 0;
    for (Py_ssize_t j = 0; j < k; j++) {
        PyObject *item = PyList_GET_ITEM(idx, j);
        if (!PyLong_CheckExact(item)) /* bool and float declined */
            return 0;
        int overflow;
        long i = PyLong_AsLongAndOverflow(item, &overflow);
        if (overflow || i <= prev || i > n)
            return 0;
        m |= (uint64_t)1 << (i - 1);
        prev = i;
    }
    Py_ssize_t len;
    const char *s = PyUnicode_AsUTF8AndSize(c, &len);
    if (s == NULL) { /* a lone surrogate */
        PyErr_Clear();
        return 0;
    }
    *mask = m;
    return parse_coefficient(s, len, val);
}

/* {mask: int} from the list `items` of terms of a form document on R^n of
 * degree k, zero coefficients dropped.  Declines any document that is not
 * canonical and integral, and a duplicate idx, whatever its coefficient;
 * the pure reader then reads it and raises what it raises. */
static PyObject *
form_json_terms(PyObject *module, PyObject *args)
{
    Py_ssize_t n, k;
    PyObject *items;
    if (!PyArg_ParseTuple(args, "nnO!:form_json_terms", &n, &k, &PyList_Type, &items))
        return NULL;
    if (n < 1 || n > MASK_BITS || k < 0 || k > n)
        return decline("form out of compiled-kernel range");
    PyObject *out = PyDict_New();
    if (out == NULL)
        return NULL;
    Py_ssize_t zeros = 0;
    for (Py_ssize_t i = 0; i < PyList_GET_SIZE(items); i++) {
        uint64_t mask;
        int64_t val;
        if (!read_term(PyList_GET_ITEM(items, i), n, k, &mask, &val)) {
            if (!PyErr_Occurred())
                decline("term outside the compiled reader");
            goto fail;
        }
        PyObject *key = PyLong_FromUnsignedLongLong(mask);
        PyObject *coeff = PyLong_FromLongLong(val);
        int rc = (key && coeff) ? PyDict_SetItem(out, key, coeff) : -1;
        Py_XDECREF(key);
        Py_XDECREF(coeff);
        if (rc < 0)
            goto fail;
        if (PyDict_GET_SIZE(out) != i + 1) {
            decline("an idx occurs twice");
            goto fail;
        }
        zeros += val == 0;
    }
    if (zeros) {
        PyObject *nonzero = PyDict_New();
        PyObject *key, *value;
        Py_ssize_t pos = 0;
        while (nonzero && PyDict_Next(out, &pos, &key, &value)) {
            if (PyObject_IsTrue(value) && PyDict_SetItem(nonzero, key, value) < 0)
                Py_CLEAR(nonzero);
        }
        Py_DECREF(out);
        return nonzero;
    }
    return out;
fail:
    Py_DECREF(out);
    return NULL;
}

static PyMethodDef module_methods[] = {
    {"signed_perm_action", signed_perm_action, METH_VARARGS,
     "Derivation action: replace letter i by perm[i] with factor -signs[i]."},
    {"form_json_text", form_json_text, METH_VARARGS,
     "form_json_text(n, k, terms): the JSON text of an integral form."},
    {"form_json_dict", form_json_dict, METH_VARARGS,
     "form_json_dict(n, k, terms): the JSON document of an integral form, as a dict."},
    {"form_json_terms", form_json_terms, METH_VARARGS,
     "form_json_terms(n, k, items): {mask: int} from a canonical integer document's terms."},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef wedge_module = {
    PyModuleDef_HEAD_INIT,
    .m_name = "cliffsys._wedge_c",
    .m_doc = "Compiled twin of _wedge_py: wedge accumulation over bitmask monomials.",
    .m_size = -1,
    .m_methods = module_methods,
};

PyMODINIT_FUNC
PyInit__wedge_c(void)
{
    if (PyType_Ready(&AccumulatorType) < 0)
        return NULL;
    PyObject *module = PyModule_Create(&wedge_module);
    if (module == NULL)
        return NULL;
    Py_INCREF(&AccumulatorType);
    if (PyModule_AddObject(module, "Accumulator", (PyObject *)&AccumulatorType) < 0) {
        Py_DECREF(&AccumulatorType);
        Py_DECREF(module);
        return NULL;
    }
    IDX_KEY = PyUnicode_InternFromString("idx");
    C_KEY = PyUnicode_InternFromString("c");
    if (IDX_KEY == NULL || C_KEY == NULL || PyModule_AddStringConstant(module, "BACKEND", "c") < 0
        || PyModule_AddIntConstant(module, "MASK_BITS", MASK_BITS) < 0
        || PyModule_AddIntConstant(module, "BATCH", BATCH) < 0) {
        Py_DECREF(module);
        return NULL;
    }
    return module;
}

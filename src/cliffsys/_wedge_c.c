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
 *
 * Terms are returned as a Terms: an immutable block of (uint64 mask, int64
 * coeff) pairs in wire order, the order of the JSON documents, and a plain
 * sequence with no equality of its own: compare list(terms).  Only this
 * kernel makes one, and it never leaves the process.  Every entry point
 * reads a Terms's block as it is, and any other sequence of (mask, coeff)
 * pairs by copying it.
 */

#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <stddef.h>
#include <stdint.h>

#define MASK_BITS 64
#define COEFF_LIMIT ((int64_t)1 << 31)
#define COEFF_MAX (COEFF_LIMIT - 1)
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

/* Fibonacci hashing: the top 64 - shift bits of key * 2^64/phi. */
static inline size_t
table_home(const table_t *t, uint64_t key)
{
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

/* *val += v; -1 with OverflowError set when the sum leaves the range. */
static inline int
add_checked(int64_t *val, int64_t v)
{
    int64_t sum;
    if (__builtin_add_overflow(*val, v, &sum) || sum >= ACC_LIMIT || sum <= -ACC_LIMIT) {
        PyErr_SetString(PyExc_OverflowError, "accumulator out of compiled-kernel range");
        return -1;
    }
    *val = sum;
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
    return add_checked(val, v);
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
decline(const char *what)
{
    PyErr_SetString(PyExc_OverflowError, what);
    return NULL;
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

/* -- wire order ------------------------------------------------------------------ */

/* Wire order is the lexicographic order of index tuples; for one degree it is
 * the descending order of the bit-reversed masks.  WIRE_DIGIT[b] is 255 minus
 * byte b bit-reversed, so that a radix sort on it, from a mask's top byte
 * down to its lowest, puts masks in wire order. */
static unsigned char WIRE_DIGIT[256];

static inline uint64_t
bit_reverse(uint64_t x)
{
    x = (x >> 1 & 0x5555555555555555ull) | (x & 0x5555555555555555ull) << 1;
    x = (x >> 2 & 0x3333333333333333ull) | (x & 0x3333333333333333ull) << 2;
    x = (x >> 4 & 0x0F0F0F0F0F0F0F0Full) | (x & 0x0F0F0F0F0F0F0F0Full) << 4;
    return __builtin_bswap64(x);
}

/* Whether key a may come before key b in wire order. */
static inline int
in_order(uint64_t a, uint64_t b)
{
    return bit_reverse(a) >= bit_reverse(b);
}

/* Digit d (0: least significant) of a key for sort_pairs. */
static inline unsigned
sort_digit(uint64_t key, int d)
{
    return WIRE_DIGIT[key >> 8 * (7 - d) & 255];
}

/* Sort p[0..n) by key into wire order: a byte-wise radix sort that
 * skips the passes whose byte is the same everywhere.  -1 with MemoryError
 * set when out of memory. */
static int
sort_pairs(slot_t *p, Py_ssize_t n)
{
    Py_ssize_t i = 1;
    while (i < n && in_order(p[i - 1].key, p[i].key))
        i++;
    if (i >= n)
        return 0;
    slot_t *tmp = PyMem_Malloc(n * sizeof(slot_t));
    if (tmp == NULL) {
        PyErr_NoMemory();
        return -1;
    }
    Py_ssize_t count[8][256] = {{0}};
    for (i = 0; i < n; i++) {
        for (int d = 0; d < 8; d++)
            count[d][sort_digit(p[i].key, d)]++;
    }
    slot_t *src = p, *dst = tmp;
    for (int d = 0; d < 8; d++) {
        Py_ssize_t *start = count[d];
        if (start[sort_digit(p[0].key, d)] == n)
            continue;
        for (Py_ssize_t b = 0, sum = 0; b < 256; b++) {
            Py_ssize_t c = start[b];
            start[b] = sum;
            sum += c;
        }
        for (i = 0; i < n; i++)
            dst[start[sort_digit(src[i].key, d)]++] = src[i];
        slot_t *swap = src;
        src = dst;
        dst = swap;
    }
    if (src != p)
        memcpy(p, src, n * sizeof(slot_t));
    PyMem_Free(tmp);
    return 0;
}

/* -- Terms: a packed block of (mask, coeff) pairs ---------------------------------- */

typedef struct {
    PyObject_VAR_HEAD
    slot_t pairs[]; /* Py_SIZE of them, in wire order */
} TermsObject;

static PyTypeObject TermsType;

static TermsObject *
terms_alloc(Py_ssize_t n)
{
    return PyObject_NewVar(TermsObject, &TermsType, n);
}

/* The pairs an entry point reads: a Terms's own block, or a copy. */
typedef struct {
    Py_ssize_t n;
    const slot_t *at;
    slot_t *owned; /* the copy of a sequence that is not a Terms */
} pairs_t;

static void
pairs_release(pairs_t *p)
{
    PyMem_Free(p->owned);
    p->owned = NULL;
}

/* The pairs of `obj`: a Terms as it is, any other sequence of (mask, coeff)
 * pairs copied in its order.  Declines a mask or coefficient that is not an
 * int, a mask outside 0..2^64-1 and a coefficient with |c| > max; -1 with an
 * exception set. */
static int
pairs_load(PyObject *obj, int64_t max, pairs_t *out)
{
    out->owned = NULL;
    if (Py_IS_TYPE(obj, &TermsType)) {
        out->n = Py_SIZE(obj);
        out->at = ((TermsObject *)obj)->pairs;
        for (Py_ssize_t i = 0; i < out->n; i++) {
            if (out->at[i].val > max || out->at[i].val < -max) {
                decline("coefficient out of compiled-kernel range");
                return -1;
            }
        }
        return 0;
    }
    PyObject *fast = PySequence_Fast(obj, "terms must be a sequence of (mask, coeff) pairs");
    if (fast == NULL)
        return -1;
    Py_ssize_t n = PySequence_Fast_GET_SIZE(fast);
    slot_t *pairs = PyMem_Malloc((n + 1) * sizeof(slot_t));
    if (pairs == NULL) {
        Py_DECREF(fast);
        PyErr_NoMemory();
        return -1;
    }
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
        PyObject *m = PySequence_Fast_GET_ITEM(pair, 0), *c = PySequence_Fast_GET_ITEM(pair, 1);
        int ints = PyLong_CheckExact(m) && PyLong_CheckExact(c), overflow = 0;
        /* a mask below 0 or of 64 bits and more raises OverflowError here */
        uint64_t mask = ints ? PyLong_AsUnsignedLongLong(m) : 0;
        long long val = ints && !PyErr_Occurred() ? PyLong_AsLongLongAndOverflow(c, &overflow) : 0;
        Py_DECREF(pair);
        if (PyErr_Occurred())
            goto fail;
        if (!ints || overflow || val > max || val < -max) {
            decline("coefficient out of compiled-kernel range");
            goto fail;
        }
        pairs[i].key = mask;
        pairs[i].val = val;
    }
    Py_DECREF(fast);
    out->n = n;
    out->at = out->owned = pairs;
    return 0;
fail:
    Py_DECREF(fast);
    PyMem_Free(pairs);
    return -1;
}

static Py_ssize_t
Terms_length(TermsObject *self)
{
    return Py_SIZE(self);
}

static PyObject *
Terms_item(TermsObject *self, Py_ssize_t i)
{
    if (i < 0 || i >= Py_SIZE(self)) {
        PyErr_SetString(PyExc_IndexError, "Terms index out of range");
        return NULL;
    }
    return term_tuple(self->pairs[i].key, self->pairs[i].val);
}

static PySequenceMethods Terms_as_sequence = {
    .sq_length = (lenfunc)Terms_length,
    .sq_item = (ssizeargfunc)Terms_item,
};

static PyTypeObject TermsType = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "cliffsys._wedge_c.Terms",
    .tp_doc = "An immutable block of (mask, coeff) pairs in wire order, made by this kernel.",
    .tp_basicsize = offsetof(TermsObject, pairs),
    .tp_itemsize = sizeof(slot_t),
    .tp_flags = Py_TPFLAGS_DEFAULT,
    .tp_as_sequence = &Terms_as_sequence,
    .tp_hash = PyObject_HashNotImplemented,
};

/* The nonzero entries of t as a Terms. */
static PyObject *
table_terms(const table_t *t)
{
    Py_ssize_t count = t->zero_val != 0;
    for (size_t i = 0; i <= t->mask; i++)
        count += t->slots[i].key && t->slots[i].val;
    TermsObject *out = terms_alloc(count);
    if (out == NULL)
        return NULL;
    slot_t *p = out->pairs;
    if (t->zero_val)
        *p++ = (slot_t){.key = 0, .val = t->zero_val};
    for (size_t i = 0; i <= t->mask; i++) {
        if (t->slots[i].key && t->slots[i].val)
            *p++ = t->slots[i];
    }
    if (sort_pairs(out->pairs, count) < 0)
        Py_CLEAR(out);
    return (PyObject *)out;
}

/* -- accumulation loops ---------------------------------------------------------- */

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

/* a ^ b into t.  With square set, b is a and only the cross terms of a ^ a
 * are taken, each pair once and doubled (for an even-degree a). */
static int
accumulate(table_t *t, const pairs_t *a, const pairs_t *b, int square)
{
    uint64_t *below = PyMem_Malloc((b->n + 1) * sizeof(uint64_t));
    if (below == NULL) {
        PyErr_NoMemory();
        return -1;
    }
    for (Py_ssize_t j = 0; j < b->n; j++)
        below[j] = below_parity(b->at[j].key);
    int rc = -1;
    batch_t q = {.len = 0};
    for (Py_ssize_t i = 0; i < a->n; i++) {
        uint64_t ma = a->at[i].key;
        /* |ca| < 2^32 and |b's coefficients| < 2^31, so every product fits in int64 */
        int64_t ca = square ? 2 * a->at[i].val : a->at[i].val;
        for (Py_ssize_t j = square ? i + 1 : 0; j < b->n; j++) {
            uint64_t mb = b->at[j].key;
            int64_t v = signed_by(ca * b->at[j].val, __builtin_popcountll(ma & below[j]));
            if (batch_put(t, &q, ma | mb, v, (ma & mb) == 0) < 0)
                goto done;
        }
    }
    rc = batch_flush(t, &q);
done:
    PyMem_Free(below);
    return rc;
}

/* Accumulate ta ^ tb into t, or the square of ta when tb is NULL. */
static int
accumulate_lists(table_t *t, PyObject *ta, PyObject *tb)
{
    pairs_t a, b;
    if (pairs_load(ta, COEFF_MAX, &a) < 0)
        return -1;
    if (tb == NULL) {
        int rc = accumulate(t, &a, &a, 1);
        pairs_release(&a);
        return rc;
    }
    if (pairs_load(tb, COEFF_MAX, &b) < 0) {
        pairs_release(&a);
        return -1;
    }
    int rc = accumulate(t, &a, &b, 0);
    pairs_release(&a);
    pairs_release(&b);
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
    return table_terms(&self->table);
}

static PyMethodDef Accumulator_methods[] = {
    {"add_product", (PyCFunction)Accumulator_add_product, METH_VARARGS,
     "Accumulate the wedge product of two term sequences."},
    {"add_square", (PyCFunction)Accumulator_add_square, METH_O,
     "Accumulate t ^ t for an even-degree term sequence (cross terms doubled)."},
    {"items", (PyCFunction)Accumulator_items, METH_NOARGS,
     "The nonzero accumulated terms, as a Terms."},
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

/* -- derivation action ------------------------------------------------------------ */

/* Letter i of a monomial becomes target[i] with factor[i], resorted with its
 * crossing sign; the nonzero sums as a Terms.  The terms are taken in order
 * and their moved letters queued into one table, as in the product loop.  A
 * letter this kernel cannot take (target -1) declines once the letters before
 * it are added, so an overflow among them still comes first. */
static PyObject *
perm_action(const pairs_t *a, const int *target, const int64_t *factor)
{
    uint64_t jbit[MASK_BITS], between[MASK_BITS];
    for (int i = 0; i < MASK_BITS; i++) {
        int j = target[i] < 0 ? i : target[i];
        int lo = i < j ? i : j, hi = i < j ? j : i;
        jbit[i] = (uint64_t)1 << j;
        /* the letters strictly between lo and hi; none when j == i, so then
         * the key is the mask and the sign is kept */
        between[i] = (((uint64_t)1 << hi) - 1) & ~(((uint64_t)2 << lo) - 1);
    }
    table_t sums; /* two keys per term: the rank-10 actions make 1.3 to 1.4 */
    if (table_init(&sums, 2 * (size_t)a->n) < 0)
        return NULL;
    PyObject *result = NULL;
    batch_t q = {.len = 0};
    for (Py_ssize_t idx = 0; idx < a->n; idx++) {
        uint64_t mask = a->at[idx].key;
        int64_t c = a->at[idx].val;
        for (uint64_t m = mask; m; m &= m - 1) {
            int i = __builtin_ctzll(m);
            if (target[i] < 0) {
                if (batch_flush(&sums, &q) == 0)
                    decline("letter out of compiled-kernel range");
                goto done;
            }
            uint64_t without = mask & ~((uint64_t)1 << i);
            /* |c| and |factor[i]| are below 2^31, so the product fits in int64 */
            int64_t v = signed_by(c * factor[i], __builtin_popcountll(without & between[i]));
            if (batch_put(&sums, &q, without | jbit[i], v, (without & jbit[i]) == 0) < 0)
                goto done;
        }
    }
    if (batch_flush(&sums, &q) == 0)
        result = table_terms(&sums);
done:
    table_free(&sums);
    return result;
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
        int usable = 0 <= j && j < MASK_BITS && -COEFF_MAX <= s && s <= COEFF_MAX;
        target[i] = usable ? (int)j : -1;
        factor[i] = usable ? -s : 0;
    }
    Py_DECREF(perm);
    Py_DECREF(signs);
    if (PyErr_Occurred())
        return NULL;

    pairs_t a;
    if (pairs_load(terms, COEFF_MAX, &a) < 0)
        return NULL;
    PyObject *out = perm_action(&a, target, factor);
    pairs_release(&a);
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

/* The pairs of the k-form on R^n with `terms` in wire order: a Terms as it
 * is, any other sequence of pairs copied and sorted; -1 with an exception
 * set.  Declines what pairs_load declines at |c| < 2^63, and n or k out of
 * range. */
static int
wire_pairs(Py_ssize_t n, Py_ssize_t k, PyObject *terms, pairs_t *out)
{
    if (n < 1 || n > MASK_BITS || k < 0) {
        decline("form out of compiled-kernel range");
        return -1;
    }
    if (pairs_load(terms, INT64_MAX, out) < 0)
        return -1;
    if (out->owned != NULL && sort_pairs(out->owned, out->n) < 0) {
        pairs_release(out);
        return -1;
    }
    return 0;
}

/* The text forms.form_to_json_text writes for the k-form on R^n with the
 * integer `terms`; declines what wire_pairs declines. */
static PyObject *
form_json_text(PyObject *module, PyObject *args)
{
    Py_ssize_t n, k;
    PyObject *terms;
    pairs_t p;
    if (!PyArg_ParseTuple(args, "nnO:form_json_text", &n, &k, &terms) || wire_pairs(n, k, terms, &p) < 0)
        return NULL;
    size_t len = LIT_LEN(HEAD_N) + decimal_len((uint64_t)n) + LIT_LEN(HEAD_K)
                 + decimal_len((uint64_t)k) + LIT_LEN(HEAD_TERMS);
    for (Py_ssize_t i = 0; i < p.n; i++)
        len += term_len(p.at[i].key, p.at[i].val);
    if (p.n == 0)
        len += LIT_LEN(NO_TERMS);
    else
        len += LIT_LEN(TERMS_OPEN) + (p.n - 1) * LIT_LEN(TERMS_SEP) + LIT_LEN(TERMS_CLOSE);

    PyObject *out = PyUnicode_New((Py_ssize_t)len, 127);
    if (out == NULL)
        goto done;
    char *start = (char *)PyUnicode_1BYTE_DATA(out), *s = start;
    s = PUT(s, HEAD_N);
    s = put_decimal(s, (uint64_t)n);
    s = PUT(s, HEAD_K);
    s = put_decimal(s, (uint64_t)k);
    s = PUT(s, HEAD_TERMS);
    if (p.n == 0) {
        s = PUT(s, NO_TERMS);
    }
    else {
        s = PUT(s, TERMS_OPEN);
        for (Py_ssize_t i = 0; i < p.n; i++) {
            if (i)
                s = PUT(s, TERMS_SEP);
            s = put_term(s, p.at[i].key, p.at[i].val);
        }
        s = PUT(s, TERMS_CLOSE);
    }
    if ((size_t)(s - start) != len) {
        Py_CLEAR(out);
        PyErr_SetString(PyExc_SystemError, "form_json_text: length mismatch");
    }
done:
    pairs_release(&p);
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

/* The dict forms.form_to_json returns for the k-form on R^n with the integer
 * `terms`: {"N": n, "k": k, "terms": [...]}, the terms in wire order;
 * declines what wire_pairs declines. */
static PyObject *
form_json_dict(PyObject *module, PyObject *args)
{
    Py_ssize_t n, k;
    PyObject *terms;
    pairs_t p;
    if (!PyArg_ParseTuple(args, "nnO:form_json_dict", &n, &k, &terms) || wire_pairs(n, k, terms, &p) < 0)
        return NULL;
    PyObject *out = NULL, *list = PyList_New(p.n);
    if (list == NULL)
        goto done;
    for (Py_ssize_t i = 0; i < p.n; i++) {
        PyObject *term = term_dict(p.at[i].key, p.at[i].val);
        if (term == NULL)
            goto done;
        PyList_SET_ITEM(list, i, term);
    }
    out = Py_BuildValue("{s:n,s:n,s:O}", "N", n, "k", k, "terms", list);
done:
    Py_XDECREF(list);
    pairs_release(&p);
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

/* The terms of the list `items` of terms of a form document on R^n of degree
 * k, as a Terms, zero coefficients dropped.  Declines any document that is
 * not canonical and integral, and a duplicate idx, whatever its coefficient;
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
    Py_ssize_t count = PyList_GET_SIZE(items); /* no Python code runs below, so items keeps it */
    TermsObject *out = terms_alloc(count);
    if (out == NULL)
        return NULL;
    slot_t *p = out->pairs;
    for (Py_ssize_t i = 0; i < count; i++) {
        if (!read_term(PyList_GET_ITEM(items, i), n, k, &p[i].key, &p[i].val)) {
            if (!PyErr_Occurred())
                decline("term outside the compiled reader");
            goto fail;
        }
    }
    if (sort_pairs(p, count) < 0)
        goto fail;
    Py_ssize_t kept = 0;
    for (Py_ssize_t i = 0; i < count; i++) {
        if (i && p[i].key == p[i - 1].key) { /* the sort leaves them adjacent */
            decline("an idx occurs twice");
            goto fail;
        }
        if (p[i].val)
            p[kept++] = p[i];
    }
    Py_SET_SIZE(out, kept);
    return (PyObject *)out;
fail:
    Py_DECREF(out);
    return NULL;
}

static PyMethodDef module_methods[] = {
    {"signed_perm_action", signed_perm_action, METH_VARARGS,
     "Derivation action: replace letter i by perm[i] with factor -signs[i]; a Terms."},
    {"form_json_text", form_json_text, METH_VARARGS,
     "form_json_text(n, k, terms): the JSON text of an integral form."},
    {"form_json_dict", form_json_dict, METH_VARARGS,
     "form_json_dict(n, k, terms): the JSON document of an integral form, as a dict."},
    {"form_json_terms", form_json_terms, METH_VARARGS,
     "form_json_terms(n, k, items): the Terms of a canonical integer document's terms."},
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
    for (int b = 0; b < 256; b++)
        WIRE_DIGIT[b] = (unsigned char)(255 - (bit_reverse((uint64_t)b) >> 56));
    if (PyType_Ready(&AccumulatorType) < 0 || PyType_Ready(&TermsType) < 0)
        return NULL;
    PyObject *module = PyModule_Create(&wedge_module);
    if (module == NULL)
        return NULL;
    if (PyModule_AddObjectRef(module, "Accumulator", (PyObject *)&AccumulatorType) < 0
        || PyModule_AddObjectRef(module, "Terms", (PyObject *)&TermsType) < 0) {
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

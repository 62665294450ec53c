/* _evcore: native event core for the repro discrete-event simulator.
 *
 * Four jobs, all bit-compatible with the pure-Python engine, pump, pool
 * and receiver in repro/sim/engine.py, repro/net/port.py,
 * repro/net/pool.py and repro/tcp/receiver.py (which remain the ground
 * truth and the fallback):
 *
 * 1. A binary heap of *light events* — one-shot, never-cancelled
 *    callbacks — keyed by native (int64 time, int64 seq) pairs, so heap
 *    maintenance costs a few integer compares instead of Python tuple
 *    comparisons.  ~94% of all events in a packet simulation are light
 *    (serialization-finish and propagation-arrival).
 *
 * 2. The fused dispatch loop: pops the global minimum across the native
 *    light heap and the Python EventQueue heap (regular, cancellable
 *    Events) and invokes callbacks until a stop condition holds.
 *
 * 3. The store-and-forward hop.  A Port owns one egress direction's
 *    whole pump state — the FIFO of packet handles, drop-tail admission
 *    with ECN/INC marking, the transmitter, the link's serialization and
 *    propagation delays, and every queue/port/link counter — and calling
 *    it *is* the port's send.  Its serialization-finish and the
 *    propagation-arrival it schedules are light events on the same heap
 *    under the same (time, seq) keys; an arrival at a switch or host is
 *    demultiplexed in C by a Demux over the node's live forwarding table.
 *
 * 4. The receive path.  A Pool runs the packet pool's handle lifecycle
 *    (alloc_data / alloc_ack / alloc_control / free, growth) on the
 *    pool's own Python columns, freelist and liveness bytes; ports free
 *    their drops through it.  A Receiver does a plain TcpReceiver's whole
 *    on_packet — reassembly over its out-of-order dict, the ledger's
 *    rcv_nxt/bytes_delivered, the cumulative ACK with the per-segment CE
 *    echo and the one-shot INC echo, sent through the host's NIC Port —
 *    and is itself the host demux's target.  So a data segment re-enters
 *    Python only at on_data/on_complete callbacks (or an installed queue
 *    hook, or a Link subclass's propagate), and an ACK only at its
 *    sender's on_packet.
 *
 * Ordering is *provably* identical to the pure path: both heaps draw
 * sequence numbers from one shared counter (owned here in native mode),
 * every key (time, seq) is unique, and dispatch always takes the global
 * minimum — so the dispatch order is the unique total order by
 * (time, seq), independent of heap internals.  The port pushes exactly
 * the events the Python pump pushes, in the same order.
 *
 * Field access uses __slots__ member offsets resolved once per run (with
 * a GetAttr fallback should a field ever stop being a slot), so the
 * per-event engine overhead is a few pointer reads, not dict lookups.
 *
 * The module is optional: repro/sim/_native.py compiles it on demand
 * with the host toolchain and the engine silently falls back to pure
 * Python when unavailable (REPRO_NATIVE=0 forces the fallback).
 */

#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <structmember.h>

/* ------------------------------------------------------------------ */
/* Light-event heap: C struct entries, native int64 keys.              */

/* What a light event does when it fires. */
enum {
    LK_CALL = 0,    /* cb(arg): a Python callable                       */
    LK_FINISH = 1,  /* serialization of handle h on Port cb finished    */
    LK_ARRIVE = 2,  /* handle h arrives at the node Demux cb serves     */
};

typedef struct {
    long long t;    /* absolute fire time (ns)           */
    long long s;    /* global sequence number            */
    PyObject *cb;   /* owned                             */
    PyObject *arg;  /* owned for LK_CALL, else NULL      */
    Py_ssize_t h;   /* packet handle (LK_FINISH/ARRIVE)  */
    int kind;
} LEntry;

typedef struct {
    PyObject_HEAD
    LEntry *heap;
    Py_ssize_t size;
    Py_ssize_t capacity;
    long long seq;  /* the simulation-wide sequence counter (shared with
                       the Python EventQueue via take_seq) */
} EventCore;

static int
core_grow(EventCore *self)
{
    Py_ssize_t cap = self->capacity ? self->capacity * 2 : 256;
    LEntry *heap = PyMem_Realloc(self->heap, cap * sizeof(LEntry));
    if (heap == NULL) {
        PyErr_NoMemory();
        return -1;
    }
    self->heap = heap;
    self->capacity = cap;
    return 0;
}

/* entry a sorts before b?  Keys are unique, so no tie-break is needed
   beyond seq. */
#define LENTRY_LT(a, b) ((a).t < (b).t || ((a).t == (b).t && (a).s < (b).s))

static void
core_siftup(EventCore *self, Py_ssize_t pos)
{
    LEntry *heap = self->heap;
    LEntry item = heap[pos];
    while (pos > 0) {
        Py_ssize_t parent = (pos - 1) >> 1;
        if (!LENTRY_LT(item, heap[parent]))
            break;
        heap[pos] = heap[parent];
        pos = parent;
    }
    heap[pos] = item;
}

static void
core_siftdown(EventCore *self, Py_ssize_t pos)
{
    LEntry *heap = self->heap;
    Py_ssize_t n = self->size;
    LEntry item = heap[pos];
    for (;;) {
        Py_ssize_t child = 2 * pos + 1;
        if (child >= n)
            break;
        if (child + 1 < n && LENTRY_LT(heap[child + 1], heap[child]))
            child += 1;
        if (!LENTRY_LT(heap[child], item))
            break;
        heap[pos] = heap[child];
        pos = child;
    }
    heap[pos] = item;
}

/* Push an entry under the next sequence number; takes new references to
 * cb and (when not NULL) arg. */
static int
core_push_entry(EventCore *self, long long t, int kind, PyObject *cb, PyObject *arg,
                Py_ssize_t h)
{
    if (self->size == self->capacity && core_grow(self) < 0)
        return -1;
    LEntry *e = &self->heap[self->size];
    e->t = t;
    e->s = self->seq++;
    Py_INCREF(cb);
    Py_XINCREF(arg);
    e->cb = cb;
    e->arg = arg;
    e->h = h;
    e->kind = kind;
    self->size += 1;
    core_siftup(self, self->size - 1);
    return 0;
}

/* Pop the root into *out (ownership of cb/arg transfers to caller). */
static void
core_pop_entry(EventCore *self, LEntry *out)
{
    *out = self->heap[0];
    self->size -= 1;
    if (self->size > 0) {
        self->heap[0] = self->heap[self->size];
        core_siftdown(self, 0);
    }
}

/* ------------------------------------------------------------------ */
/* Interned attribute names + shared constants (module init).          */

static PyObject *str_now, *str_stop, *str_heap, *str_free, *str_live;
static PyObject *str_cancelled, *str_deadline, *str_time, *str_seq;
static PyObject *str_dseq, *str_callback, *str_args, *str_processed, *str_packet_seq;
static PyObject *long_minus_one, *long_zero, *empty_tuple;

/* ------------------------------------------------------------------ */
/* __slots__ member offsets, resolved once per run() call.             */

typedef struct {
    Py_ssize_t now, stop;                                  /* Simulator  */
    Py_ssize_t live;                                       /* EventQueue */
    Py_ssize_t cancelled, deadline, time, seq, dseq;       /* Event      */
    Py_ssize_t callback, args;                             /* Event      */
} Offsets;

static Py_ssize_t
slot_offset(PyTypeObject *tp, PyObject *name)
{
    PyObject *descr = PyObject_GetAttr((PyObject *)tp, name);
    Py_ssize_t off = -1;
    if (descr == NULL) {
        PyErr_Clear();
        return -1;
    }
    if (Py_TYPE(descr) == &PyMemberDescr_Type) {
        PyMemberDef *def = ((PyMemberDescrObject *)descr)->d_member;
        if (def->type == T_OBJECT_EX || def->type == T_OBJECT)
            off = def->offset;
    }
    Py_DECREF(descr);
    return off;
}

#define SLOT(obj, off) (*(PyObject **)((char *)(obj) + (off)))

/* Borrowed read of an object field; falls back to GetAttr when the
 * offset is unknown (then *ownedp holds a reference the caller must
 * release).  Returns NULL with an exception set on failure. */
static inline PyObject *
field_get(PyObject *obj, Py_ssize_t off, PyObject *name, PyObject **ownedp)
{
    if (off >= 0) {
        PyObject *v = SLOT(obj, off);
        *ownedp = NULL;
        if (v == NULL)
            PyErr_SetObject(PyExc_AttributeError, name);
        return v;
    }
    *ownedp = PyObject_GetAttr(obj, name);
    return *ownedp;
}

static inline int
field_set(PyObject *obj, Py_ssize_t off, PyObject *name, PyObject *v)
{
    if (off >= 0) {
        PyObject *old = SLOT(obj, off);
        Py_INCREF(v);
        SLOT(obj, off) = v;
        Py_XDECREF(old);
        return 0;
    }
    return PyObject_SetAttr(obj, name, v);
}

/* ------------------------------------------------------------------ */
/* Python-level methods                                               */

static PyObject *
EventCore_new(PyTypeObject *type, PyObject *args, PyObject *kwds)
{
    EventCore *self = (EventCore *)type->tp_alloc(type, 0);
    if (self == NULL)
        return NULL;
    self->heap = NULL;
    self->size = 0;
    self->capacity = 0;
    self->seq = 0;
    return (PyObject *)self;
}

/* Drop every pending light event.  The heap is detached before any
 * reference is released, because releasing one can run arbitrary code
 * (a finalizer) that pushes onto this core again. */
static void
core_drop_all(EventCore *self)
{
    LEntry *heap = self->heap;
    Py_ssize_t n = self->size;
    self->heap = NULL;
    self->size = 0;
    self->capacity = 0;
    for (Py_ssize_t i = 0; i < n; i++) {
        Py_DECREF(heap[i].cb);
        Py_XDECREF(heap[i].arg);
    }
    PyMem_Free(heap);
}

/* GC support: pending callbacks are usually bound methods of components
 * that hold the Simulator, which holds this core — a cycle the collector
 * must be able to see and break. */
static int
EventCore_traverse(EventCore *self, visitproc visit, void *arg)
{
    for (Py_ssize_t i = 0; i < self->size; i++) {
        Py_VISIT(self->heap[i].cb);
        Py_VISIT(self->heap[i].arg);
    }
    return 0;
}

static int
EventCore_tp_clear(EventCore *self)
{
    core_drop_all(self);
    return 0;
}

static void
EventCore_dealloc(EventCore *self)
{
    PyObject_GC_UnTrack(self);
    core_drop_all(self);
    Py_TYPE(self)->tp_free((PyObject *)self);
}

static PyObject *
EventCore_take_seq(EventCore *self, PyObject *Py_UNUSED(ignored))
{
    return PyLong_FromLongLong(self->seq++);
}

/* push(time, callback, arg): schedule a light event at absolute `time`. */
static PyObject *
EventCore_push(EventCore *self, PyObject *const *args, Py_ssize_t nargs)
{
    if (nargs != 3) {
        PyErr_SetString(PyExc_TypeError, "push expects (time, callback, arg)");
        return NULL;
    }
    long long t = PyLong_AsLongLong(args[0]);
    if (t == -1 && PyErr_Occurred())
        return NULL;
    if (core_push_entry(self, t, LK_CALL, args[1], args[2], 0) < 0)
        return NULL;
    Py_RETURN_NONE;
}

static Py_ssize_t
EventCore_len(PyObject *op)
{
    return ((EventCore *)op)->size;
}

static PyObject *
EventCore_peek_time(EventCore *self, PyObject *Py_UNUSED(ignored))
{
    if (self->size == 0)
        Py_RETURN_NONE;
    return PyLong_FromLongLong(self->heap[0].t);
}

static PyObject *
EventCore_clear(EventCore *self, PyObject *Py_UNUSED(ignored))
{
    core_drop_all(self);
    Py_RETURN_NONE;
}

/* ------------------------------------------------------------------ */
/* Object-heap (the Python EventQueue `_heap` of (time, seq, Event)
 * tuples) — the same sift algorithm as heapq, via rich comparison.
 * Entries are tuples whose first two elements are unique ints, so
 * comparisons are C tuple comparisons and never reach the Event.      */

static int
obj_siftdown(PyObject *heap, Py_ssize_t pos)
{
    Py_ssize_t n = PyList_GET_SIZE(heap);
    PyObject *item = PyList_GET_ITEM(heap, pos);
    Py_INCREF(item);
    for (;;) {
        Py_ssize_t child = 2 * pos + 1;
        if (child >= n)
            break;
        if (child + 1 < n) {
            int lt = PyObject_RichCompareBool(
                PyList_GET_ITEM(heap, child + 1), PyList_GET_ITEM(heap, child), Py_LT);
            if (lt < 0) {
                Py_DECREF(item);
                return -1;
            }
            if (lt)
                child += 1;
        }
        PyObject *c = PyList_GET_ITEM(heap, child);
        int lt = PyObject_RichCompareBool(c, item, Py_LT);
        if (lt < 0) {
            Py_DECREF(item);
            return -1;
        }
        if (!lt)
            break;
        Py_INCREF(c);
        PyList_SetItem(heap, pos, c);
        pos = child;
    }
    PyList_SetItem(heap, pos, item);
    return 0;
}

/* Remove heap[0]; returns new reference to it (or NULL on error). */
static PyObject *
obj_heap_pop(PyObject *heap)
{
    Py_ssize_t n = PyList_GET_SIZE(heap);
    PyObject *root = PyList_GET_ITEM(heap, 0);
    Py_INCREF(root);
    PyObject *last = PyList_GET_ITEM(heap, n - 1);
    Py_INCREF(last);
    if (PyList_SetSlice(heap, n - 1, n, NULL) < 0) {
        Py_DECREF(root);
        Py_DECREF(last);
        return NULL;
    }
    if (n > 1) {
        PyList_SetItem(heap, 0, last);  /* steals ref */
        if (obj_siftdown(heap, 0) < 0) {
            Py_DECREF(root);
            return NULL;
        }
    } else {
        Py_DECREF(last);
    }
    return root;
}

/* Replace heap[0] with newentry (ref stolen) and restore heap order. */
static int
obj_heap_replace(PyObject *heap, PyObject *newentry)
{
    PyList_SetItem(heap, 0, newentry);  /* steals ref */
    return obj_siftdown(heap, 0);
}

/* sim.events_processed += n, preserving any pending exception (mirrors
 * the pure loop's `finally` accounting so partial progress is credited
 * even when a callback raises). */
static void
bump_processed(PyObject *sim, long long n)
{
    PyObject *type, *value, *tb;
    PyErr_Fetch(&type, &value, &tb);
    PyObject *cur = PyObject_GetAttr(sim, str_processed);
    if (cur != NULL) {
        long long total = PyLong_AsLongLong(cur);
        Py_DECREF(cur);
        if (!(total == -1 && PyErr_Occurred())) {
            PyObject *upd = PyLong_FromLongLong(total + n);
            if (upd != NULL) {
                (void)PyObject_SetAttr(sim, str_processed, upd);
                Py_DECREF(upd);
            }
        }
    }
    PyErr_Clear();
    PyErr_Restore(type, value, tb);
}

/* ------------------------------------------------------------------ */
/* Pool: the packet pool's handle lifecycle, on the pool's own columns. *
 *                                                                    *
 * Mirrors repro/net/pool.py's PacketPool.alloc_data / alloc_ack /    *
 * alloc_control / free / _grow step for step over the same Python     *
 * columns, LIFO freelist and liveness bytearray, so it hands out the  *
 * handle sequence the Python pool would.  The capacity and the        *
 * allocated/freed totals live here; the native pool reads them        *
 * through.                                                           */

/* Packet flag bits (repro.net.pool). */
#define F_ACK 1
#define F_ECT 2
#define F_CE 4
#define F_ECE 8
#define F_INC 16
#define F_RETX 32

/* The integer columns, in the order PacketPool declares them. */
enum { COL_FLOW, COL_SRC, COL_DST, COL_SEQ, COL_LEN, COL_ACK, COL_WIRE, COL_PID, N_COLS };

static const char *const pool_columns[N_COLS] = {
    "flow_id", "src", "dst", "seq", "payload_len", "ack_seq", "wire_bytes", "packet_id",
};

typedef struct {
    PyObject_HEAD
    PyObject *cols[N_COLS];  /* owned lists, indexed by handle */
    PyObject *flags, *live;  /* owned bytearrays */
    PyObject *free;          /* owned list: the LIFO freelist */
    PyObject *error;         /* PoolError */
    PyObject *unassigned;    /* packet_id of a slot never allocated */
    PyObject *ack_wire;      /* a pure ACK's wire size */
    long long header_bytes;  /* a data segment's wire overhead */
    long long capacity, allocated_total, freed_total;
} Pool;

static PyTypeObject PoolType;

/* A bytearray's bytes.  Re-derived on every access: growth, or Python
 * code run by a hook, can move the buffer. */
#define BYTES(ba) ((unsigned char *)PyByteArray_AS_STRING(ba))

/* Does handle h index every column?  They grow together, but a column
 * rebound from Python could break that, so it is checked. */
static int
pool_check(Pool *p, Py_ssize_t h)
{
    size_t uh = (size_t)h;
    if (p->free == NULL) {
        PyErr_SetString(PyExc_RuntimeError, "packet pool was cleared");
        return -1;
    }
    for (int i = 0; i < N_COLS; i++) {
        if (uh >= (size_t)PyList_GET_SIZE(p->cols[i]))
            goto out_of_range;
    }
    if (uh < (size_t)PyByteArray_GET_SIZE(p->flags) && uh < (size_t)PyByteArray_GET_SIZE(p->live))
        return 0;
out_of_range:
    PyErr_Format(PyExc_IndexError, "packet handle %zd out of range", h);
    return -1;
}

/* Column c of handle h as a C integer (h already checked). */
static inline int
pool_get(Pool *p, int c, Py_ssize_t h, long long *out)
{
    *out = PyLong_AsLongLong(PyList_GET_ITEM(p->cols[c], h));
    return (*out == -1 && PyErr_Occurred()) ? -1 : 0;
}

/* PacketPool._grow: double every column in place, so references bound
 * to them stay valid; the new handles join the freelist highest first,
 * so the lowest is allocated next. */
static int
pool_grow(Pool *p)
{
    Py_ssize_t old = (Py_ssize_t)p->capacity;
    if (old <= 0) {
        PyErr_Format(PyExc_ValueError, "pool capacity must be positive, got %zd", old);
        return -1;
    }
    for (int i = 0; i < N_COLS; i++) {
        PyObject *fill = i == COL_PID ? p->unassigned : long_zero;
        PyObject *ext = PyList_New(old);
        if (ext == NULL)
            return -1;
        for (Py_ssize_t j = 0; j < old; j++) {
            Py_INCREF(fill);
            PyList_SET_ITEM(ext, j, fill);
        }
        Py_ssize_t n = PyList_GET_SIZE(p->cols[i]);
        int rc = PyList_SetSlice(p->cols[i], n, n, ext);
        Py_DECREF(ext);
        if (rc < 0)
            return -1;
    }
    PyObject *bytes[2] = {p->flags, p->live};
    for (int i = 0; i < 2; i++) {
        Py_ssize_t n = PyByteArray_GET_SIZE(bytes[i]);
        if (PyByteArray_Resize(bytes[i], n + old) < 0)
            return -1;
        memset(PyByteArray_AS_STRING(bytes[i]) + n, 0, (size_t)old);
    }
    p->capacity = 2 * (long long)old;
    for (Py_ssize_t h = 2 * old - 1; h >= old; h--) {
        PyObject *boxed = PyLong_FromSsize_t(h);
        if (boxed == NULL)
            return -1;
        int rc = PyList_Append(p->free, boxed);
        Py_DECREF(boxed);
        if (rc < 0)
            return -1;
    }
    return 0;
}

/* The common body of PacketPool.alloc_*: pop the most recently freed
 * handle (growing first when none is free), store vals (borrowed) in its
 * columns and mark it live.  Returns the handle, or -1 with an exception
 * set. */
static Py_ssize_t
pool_alloc(Pool *p, PyObject *vals[N_COLS], unsigned char flags)
{
    if (p->free == NULL) {
        PyErr_SetString(PyExc_RuntimeError, "packet pool was cleared");
        return -1;
    }
    Py_ssize_t n = PyList_GET_SIZE(p->free);
    if (n == 0) {
        if (pool_grow(p) < 0)
            return -1;
        n = PyList_GET_SIZE(p->free);
    }
    Py_ssize_t h = PyLong_AsSsize_t(PyList_GET_ITEM(p->free, n - 1));
    if ((h == -1 && PyErr_Occurred()) || pool_check(p, h) < 0)
        return -1;
    if (PyList_SetSlice(p->free, n - 1, n, NULL) < 0)
        return -1;
    for (int i = 0; i < N_COLS; i++) {
        PyObject *col = p->cols[i];
        PyObject *old = PyList_GET_ITEM(col, h);
        Py_INCREF(vals[i]);
        PyList_SET_ITEM(col, h, vals[i]);
        Py_DECREF(old);
    }
    BYTES(p->flags)[h] = flags;
    BYTES(p->live)[h] = 1;
    p->allocated_total += 1;
    return h;
}

/* PacketPool.free: liveness is always checked, so a double free or a
 * stale handle raises PoolError at the operation that went wrong. */
static int
pool_release(Pool *p, Py_ssize_t h)
{
    if (p->free == NULL) {
        PyErr_SetString(PyExc_RuntimeError, "packet pool was cleared");
        return -1;
    }
    if ((size_t)h >= (size_t)PyByteArray_GET_SIZE(p->live)) {
        PyErr_Format(PyExc_IndexError, "packet handle %zd out of range", h);
        return -1;
    }
    unsigned char *live = BYTES(p->live);
    if (!live[h]) {
        PyErr_Format(p->error,
                     "free of dead packet handle %zd "
                     "(double free, or a stale handle kept past its lifetime)",
                     h);
        return -1;
    }
    live[h] = 0;
    p->freed_total += 1;
    PyObject *boxed = PyLong_FromSsize_t(h);
    if (boxed == NULL)
        return -1;
    int rc = PyList_Append(p->free, boxed);
    Py_DECREF(boxed);
    return rc;
}

/* Bind fastcall arguments, positional or by keyword, to `names` (all
 * required); out[] receives borrowed references. */
static int
bind_args(const char *fname, const char *const *names, int n, PyObject *const *args,
          Py_ssize_t nargs, PyObject *kwnames, PyObject **out)
{
    if (nargs > n) {
        PyErr_Format(PyExc_TypeError, "%s() takes %d arguments (%zd given)", fname, n, nargs);
        return -1;
    }
    for (int i = 0; i < n; i++)
        out[i] = i < nargs ? args[i] : NULL;
    Py_ssize_t nkw = kwnames == NULL ? 0 : PyTuple_GET_SIZE(kwnames);
    for (Py_ssize_t k = 0; k < nkw; k++) {
        PyObject *key = PyTuple_GET_ITEM(kwnames, k);
        int i = 0;
        while (i < n && PyUnicode_CompareWithASCIIString(key, names[i]) != 0)
            i++;
        if (i == n) {
            PyErr_Format(PyExc_TypeError, "%s() got an unexpected keyword argument '%U'", fname,
                         key);
            return -1;
        }
        if (out[i] != NULL) {
            PyErr_Format(PyExc_TypeError, "%s() got multiple values for argument '%s'", fname,
                         names[i]);
            return -1;
        }
        out[i] = args[nargs + k];
    }
    for (int i = 0; i < n; i++) {
        if (out[i] == NULL) {
            PyErr_Format(PyExc_TypeError, "%s() missing required argument '%s'", fname,
                         names[i]);
            return -1;
        }
    }
    return 0;
}

/* Two truth values as flag bits; -1 with an exception set. */
static int
flag_bits(PyObject *a, int bit_a, PyObject *b, int bit_b)
{
    int ta = PyObject_IsTrue(a), tb = PyObject_IsTrue(b);
    if (ta < 0 || tb < 0)
        return -1;
    return (ta ? bit_a : 0) | (tb ? bit_b : 0);
}

static PyObject *
handle_or_null(Py_ssize_t h)
{
    return h < 0 ? NULL : PyLong_FromSsize_t(h);
}

static const char *const alloc_data_names[] = {
    "flow_id", "src", "dst", "seq", "payload_len", "ect", "is_retransmit", "packet_id",
};

/* alloc_data(flow_id, src, dst, seq, payload_len, ect, is_retransmit, packet_id) */
static PyObject *
Pool_alloc_data(Pool *p, PyObject *const *args, Py_ssize_t nargs, PyObject *kwnames)
{
    PyObject *a[8];
    if (bind_args("alloc_data", alloc_data_names, 8, args, nargs, kwnames, a) < 0)
        return NULL;
    int flags = flag_bits(a[5], F_ECT, a[6], F_RETX);
    if (flags < 0)
        return NULL;
    long long payload = PyLong_AsLongLong(a[4]);
    if (payload == -1 && PyErr_Occurred())
        return NULL;
    PyObject *wire = PyLong_FromLongLong(payload + p->header_bytes);
    if (wire == NULL)
        return NULL;
    PyObject *vals[N_COLS] = {a[0], a[1], a[2], a[3], a[4], long_zero, wire, a[7]};
    Py_ssize_t h = pool_alloc(p, vals, (unsigned char)flags);
    Py_DECREF(wire);
    return handle_or_null(h);
}

static const char *const alloc_ack_names[] = {
    "flow_id", "src", "dst", "ack_seq", "ece", "inc", "packet_id",
};

/* alloc_ack(flow_id, src, dst, ack_seq, ece, inc, packet_id) */
static PyObject *
Pool_alloc_ack(Pool *p, PyObject *const *args, Py_ssize_t nargs, PyObject *kwnames)
{
    PyObject *a[7];
    if (bind_args("alloc_ack", alloc_ack_names, 7, args, nargs, kwnames, a) < 0)
        return NULL;
    int flags = flag_bits(a[4], F_ECE, a[5], F_INC);
    if (flags < 0)
        return NULL;
    PyObject *vals[N_COLS] = {a[0], a[1], a[2], long_zero, long_zero, a[3], p->ack_wire, a[6]};
    return handle_or_null(pool_alloc(p, vals, (unsigned char)(F_ACK | flags)));
}

static const char *const alloc_control_names[] = {
    "flow_id", "src", "dst", "wire_bytes", "packet_id",
};

/* alloc_control(flow_id, src, dst, wire_bytes, packet_id) */
static PyObject *
Pool_alloc_control(Pool *p, PyObject *const *args, Py_ssize_t nargs, PyObject *kwnames)
{
    PyObject *a[5];
    if (bind_args("alloc_control", alloc_control_names, 5, args, nargs, kwnames, a) < 0)
        return NULL;
    PyObject *vals[N_COLS] = {a[0], a[1], a[2], long_zero, long_zero, long_zero, a[3], a[4]};
    return handle_or_null(pool_alloc(p, vals, 0));
}

static PyObject *
Pool_free(Pool *p, PyObject *arg)
{
    Py_ssize_t h = PyLong_AsSsize_t(arg);
    if ((h == -1 && PyErr_Occurred()) || pool_release(p, h) < 0)
        return NULL;
    Py_RETURN_NONE;
}

static PyObject *
Pool_grow(Pool *p, PyObject *Py_UNUSED(ignored))
{
    if (p->free == NULL) {
        PyErr_SetString(PyExc_RuntimeError, "packet pool was cleared");
        return NULL;
    }
    if (pool_grow(p) < 0)
        return NULL;
    Py_RETURN_NONE;
}

#define POOL_LL(name) {#name, T_LONGLONG, offsetof(Pool, name), 0, NULL}

static PyMemberDef Pool_members[] = {
    POOL_LL(capacity),
    POOL_LL(allocated_total),
    POOL_LL(freed_total),
    {NULL},
};

#define FASTCALL_KW(fn) (PyCFunction)(void (*)(void))(fn), METH_FASTCALL | METH_KEYWORDS

static PyMethodDef Pool_methods[] = {
    {"alloc_data", FASTCALL_KW(Pool_alloc_data),
     "alloc_data(flow_id, src, dst, seq, payload_len, ect, is_retransmit, packet_id) -> handle"},
    {"alloc_ack", FASTCALL_KW(Pool_alloc_ack),
     "alloc_ack(flow_id, src, dst, ack_seq, ece, inc, packet_id) -> handle"},
    {"alloc_control", FASTCALL_KW(Pool_alloc_control),
     "alloc_control(flow_id, src, dst, wire_bytes, packet_id) -> handle"},
    {"free", (PyCFunction)Pool_free, METH_O,
     "free(h): return a live handle to the freelist (PoolError if it is not live)."},
    {"grow", (PyCFunction)Pool_grow, METH_NOARGS,
     "grow(): double every column in place."},
    {NULL, NULL, 0, NULL},
};

static int
Pool_traverse(Pool *p, visitproc visit, void *arg)
{
    for (int i = 0; i < N_COLS; i++)
        Py_VISIT(p->cols[i]);
    Py_VISIT(p->flags);
    Py_VISIT(p->live);
    Py_VISIT(p->free);
    Py_VISIT(p->error);
    Py_VISIT(p->unassigned);
    Py_VISIT(p->ack_wire);
    return 0;
}

static int
Pool_clear(Pool *p)
{
    for (int i = 0; i < N_COLS; i++)
        Py_CLEAR(p->cols[i]);
    Py_CLEAR(p->flags);
    Py_CLEAR(p->live);
    Py_CLEAR(p->free);
    Py_CLEAR(p->error);
    Py_CLEAR(p->unassigned);
    Py_CLEAR(p->ack_wire);
    return 0;
}

static void
Pool_dealloc(Pool *p)
{
    PyObject_GC_UnTrack(p);
    Pool_clear(p);
    Py_TYPE(p)->tp_free((PyObject *)p);
}

static PyTypeObject PoolType = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "_evcore.Pool",
    .tp_basicsize = sizeof(Pool),
    .tp_flags = Py_TPFLAGS_DEFAULT | Py_TPFLAGS_HAVE_GC,
    .tp_doc = "A packet pool's alloc/free over its Python columns; made by EventCore.pool().",
    .tp_dealloc = (destructor)Pool_dealloc,
    .tp_traverse = (traverseproc)Pool_traverse,
    .tp_clear = (inquiry)Pool_clear,
    .tp_free = PyObject_GC_Del,
    .tp_methods = Pool_methods,
    .tp_members = Pool_members,
};

/* ------------------------------------------------------------------ */
/* Port: one egress direction's store-and-forward pump, state in C.   *
 *                                                                    *
 * Mirrors repro/net/port.py's Python pump over a DropTailQueue and a *
 * Link step for step (see OutputPort._send / _start_next /           *
 * _finish_tx, DropTailQueue.enqueue / dequeue, Link.propagate), so   *
 * both push the same light events in the same order.  Python sees    *
 * the state through members named after the DropTailQueue, OutputPort *
 * and Link attributes they back.                                     */

typedef struct {
    PyObject_HEAD
    vectorcallfunc vectorcall;  /* calling the port is its send(h) */
    EventCore *core;            /* owned */
    PyObject *sim;              /* owned: the clock is sim.now */
    Py_ssize_t now_off;         /* __slots__ offset of sim.now, or -1 */
    Pool *pool;                 /* owned: the packets' columns; drops are freed here */
    /* FIFO of queued handles: a ring buffer */
    Py_ssize_t *ring;
    Py_ssize_t head, count, cap;
    /* DropTailQueue */
    long long capacity_bytes;
    char has_ecn, has_inc;      /* threshold set (None disables it) */
    long long ecn_threshold, inc_threshold;
    long long occupancy_bytes;
    long long enqueued_packets, enqueued_bytes;
    long long dequeued_packets, dequeued_bytes;
    long long dropped_packets, dropped_bytes;
    long long marked_packets, inc_marked_packets;
    PyObject *on_drop, *on_mark, *on_enqueue;  /* None or NULL: unset */
    /* OutputPort transmitter */
    char busy;
    long long tx_packets, tx_bytes;
    /* Link */
    long long rate_bps, prop_delay_ns;
    long long delivered_packets, delivered_bytes;
    PyObject *arrival;    /* Demux, or a callable taking the handle */
    PyObject *propagate;  /* Link subclass: propagate(sim, h) replaces the hop */
    PyObject *serialize;  /* Link subclass: serialization_delay(wire_bytes) */
} Port;

/* Demux: a switch's or host's receive(h) — `table[keys[h]]` is the next
 * send (a Port or a Python callable) or the flow's on_packet.  Misses go
 * to the node's own receive, which counts and frees them. */
typedef struct {
    PyObject_HEAD
    PyObject *table;     /* owned dict, live: routes added later are seen */
    PyObject *keys;      /* owned pool column (list of int) */
    PyObject *fallback;  /* owned: the node's receive */
} Demux;

static PyTypeObject PortType;
static PyTypeObject DemuxType;
static PyTypeObject ReceiverType;
typedef struct Receiver Receiver;
static int receiver_deliver(Receiver *r, Py_ssize_t h, long long now);

/* An optional object member: NULL and None both mean unset. */
#define IS_SET(obj) ((obj) != NULL && (obj) != Py_None)

/* fn(h) with a boxed handle; 0 or -1 with an exception set. */
static int
call_with_handle(PyObject *fn, Py_ssize_t h)
{
    PyObject *boxed = PyLong_FromSsize_t(h);
    if (boxed == NULL)
        return -1;
    PyObject *res = PyObject_CallOneArg(fn, boxed);
    Py_DECREF(boxed);
    if (res == NULL)
        return -1;
    Py_DECREF(res);
    return 0;
}

static int
port_wire(Port *p, Py_ssize_t h, long long *out)
{
    if (pool_check(p->pool, h) < 0)
        return -1;
    return pool_get(p->pool, COL_WIRE, h, out);
}

/* The flag byte of handle h (see BYTES). */
#define PORT_FLAGS(p) BYTES((p)->pool->flags)

/* sim.now as a C integer; `off` is its __slots__ offset, or -1. */
static int
sim_now(PyObject *sim, Py_ssize_t off, long long *out)
{
    PyObject *now;
    if (off >= 0) {
        now = SLOT(sim, off);
        if (now == NULL) {
            PyErr_SetObject(PyExc_AttributeError, str_now);
            return -1;
        }
        Py_INCREF(now);
    } else {
        now = PyObject_GetAttr(sim, str_now);
        if (now == NULL)
            return -1;
    }
    *out = PyLong_AsLongLong(now);
    Py_DECREF(now);
    return (*out == -1 && PyErr_Occurred()) ? -1 : 0;
}

/* Link.serialization_delay: the frame's bits at the link rate, rounded
 * up to a whole nanosecond (repro.sim.units.transmission_time_ns). */
static int
port_serialization(Port *p, long long wire, long long *out)
{
    if (IS_SET(p->serialize)) {
        PyObject *res = PyObject_CallFunction(p->serialize, "L", wire);
        if (res == NULL)
            return -1;
        *out = PyLong_AsLongLong(res);
        Py_DECREF(res);
        return (*out == -1 && PyErr_Occurred()) ? -1 : 0;
    }
    if (p->rate_bps <= 0) {
        PyErr_Format(PyExc_ValueError, "link rate must be positive, got %lld", p->rate_bps);
        return -1;
    }
    if (wire < 0) {
        PyErr_Format(PyExc_ValueError, "size must be non-negative, got %lld", wire);
        return -1;
    }
    if (wire > LLONG_MAX / 8000000000LL) {
        PyErr_SetString(PyExc_OverflowError, "frame too large to serialize");
        return -1;
    }
    long long bits_ns = wire * 8 * 1000000000LL;
    *out = bits_ns / p->rate_bps + (bits_ns % p->rate_bps != 0);
    return 0;
}

static int
ring_push(Port *p, Py_ssize_t h)
{
    if (p->count == p->cap) {
        Py_ssize_t cap = p->cap ? p->cap * 2 : 16;
        Py_ssize_t *ring = PyMem_Malloc(cap * sizeof(Py_ssize_t));
        if (ring == NULL) {
            PyErr_NoMemory();
            return -1;
        }
        for (Py_ssize_t i = 0; i < p->count; i++)
            ring[i] = p->ring[(p->head + i) % p->cap];
        PyMem_Free(p->ring);
        p->ring = ring;
        p->head = 0;
        p->cap = cap;
    }
    p->ring[(p->head + p->count) % p->cap] = h;
    p->count += 1;
    return 0;
}

/* DropTailQueue.enqueue: mark against the occupancy the arriving packet
 * sees, then admit or drop.  1 admitted, 0 dropped (handle freed), -1
 * error. */
static int
port_admit(Port *p, Py_ssize_t h)
{
    long long wire;
    if (port_wire(p, h, &wire) < 0)
        return -1;
    long long occupancy = p->occupancy_bytes;
    unsigned char flags = PORT_FLAGS(p)[h];
    if (p->has_ecn && (flags & F_ECT) && occupancy > p->ecn_threshold && !(flags & F_CE)) {
        flags |= F_CE;
        PORT_FLAGS(p)[h] = flags;
        p->marked_packets += 1;
        if (IS_SET(p->on_mark) && call_with_handle(p->on_mark, h) < 0)
            return -1;
    }
    if (p->has_inc && occupancy > p->inc_threshold && !(flags & F_INC)) {
        PORT_FLAGS(p)[h] = flags | F_INC;
        p->inc_marked_packets += 1;
    }
    if (occupancy + wire > p->capacity_bytes) {
        p->dropped_packets += 1;
        p->dropped_bytes += wire;
        if (IS_SET(p->on_drop) && call_with_handle(p->on_drop, h) < 0)
            return -1;
        return pool_release(p->pool, h);
    }
    if (ring_push(p, h) < 0)
        return -1;
    p->occupancy_bytes = occupancy + wire;
    p->enqueued_packets += 1;
    p->enqueued_bytes += wire;
    if (IS_SET(p->on_enqueue) && call_with_handle(p->on_enqueue, h) < 0)
        return -1;
    return 1;
}

/* DropTailQueue.dequeue: 1 with the handle and its wire size set, 0 when
 * empty, -1 error. */
static int
port_pop(Port *p, Py_ssize_t *hp, long long *wirep)
{
    if (p->count == 0)
        return 0;
    Py_ssize_t h = p->ring[p->head];
    p->head = (p->head + 1) % p->cap;
    p->count -= 1;
    long long wire;
    if (port_wire(p, h, &wire) < 0)
        return -1;
    p->occupancy_bytes -= wire;
    p->dequeued_packets += 1;
    p->dequeued_bytes += wire;
    *hp = h;
    *wirep = wire;
    return 1;
}

/* OutputPort._start_next: serialize the head-of-line frame, or go idle. */
static int
port_start_next(Port *p, long long now)
{
    Py_ssize_t h;
    long long wire, delay;
    int got = port_pop(p, &h, &wire);
    if (got <= 0) {
        if (got == 0)
            p->busy = 0;
        return got;
    }
    p->busy = 1;
    if (port_serialization(p, wire, &delay) < 0)
        return -1;
    return core_push_entry(p->core, now + delay, LK_FINISH, (PyObject *)p, NULL, h);
}

/* OutputPort._send: 1 admitted, 0 dropped, -1 error. */
static int
port_send(Port *p, Py_ssize_t h, long long now)
{
    int admitted = port_admit(p, h);
    if (admitted <= 0)
        return admitted;
    if (!p->busy && port_start_next(p, now) < 0)
        return -1;
    return 1;
}

/* OutputPort._finish_tx: the frame left the wire; hand it to the link
 * (Link.propagate), then start the next one. */
static int
port_finish(Port *p, Py_ssize_t h, long long now)
{
    long long wire;
    if (port_wire(p, h, &wire) < 0)
        return -1;
    p->tx_packets += 1;
    p->tx_bytes += wire;
    if (IS_SET(p->propagate)) {
        PyObject *res = PyObject_CallFunction(p->propagate, "On", p->sim, h);
        if (res == NULL)
            return -1;
        Py_DECREF(res);
    } else {
        p->delivered_packets += 1;
        p->delivered_bytes += wire;
        PyObject *arrival = p->arrival;
        if (!IS_SET(arrival)) {
            PyErr_SetString(PyExc_RuntimeError, "port link has no destination");
            return -1;
        }
        int rc;
        if (Py_TYPE(arrival) == &DemuxType) {
            rc = core_push_entry(p->core, now + p->prop_delay_ns, LK_ARRIVE, arrival, NULL, h);
        } else {
            PyObject *boxed = PyLong_FromSsize_t(h);
            if (boxed == NULL)
                return -1;
            rc = core_push_entry(p->core, now + p->prop_delay_ns, LK_CALL, arrival, boxed, 0);
            Py_DECREF(boxed);
        }
        if (rc < 0)
            return -1;
    }
    return port_start_next(p, now);
}

/* Switch.receive / Host.receive. */
static int
demux_deliver(Demux *d, Py_ssize_t h, long long now)
{
    if ((size_t)h >= (size_t)PyList_GET_SIZE(d->keys)) {
        PyErr_Format(PyExc_IndexError, "packet handle %zd out of range", h);
        return -1;
    }
    PyObject *target = PyDict_GetItemWithError(d->table, PyList_GET_ITEM(d->keys, h));
    if (target == NULL) {
        if (PyErr_Occurred())
            return -1;
        return call_with_handle(d->fallback, h);
    }
    int rc;
    Py_INCREF(target);  /* the call may unregister it */
    if (Py_TYPE(target) == &PortType)
        rc = port_send((Port *)target, h, now) < 0 ? -1 : 0;
    else if (Py_TYPE(target) == &ReceiverType)
        rc = receiver_deliver((Receiver *)target, h, now);
    else
        rc = call_with_handle(target, h);
    Py_DECREF(target);
    return rc;
}

static PyObject *
Port_vectorcall(PyObject *op, PyObject *const *args, size_t nargsf, PyObject *kwnames)
{
    Port *p = (Port *)op;
    if (PyVectorcall_NARGS(nargsf) != 1 || kwnames != NULL) {
        PyErr_SetString(PyExc_TypeError, "send expects one packet handle");
        return NULL;
    }
    if (p->core == NULL) {
        PyErr_SetString(PyExc_RuntimeError, "port is detached from its event core");
        return NULL;
    }
    Py_ssize_t h = PyLong_AsSsize_t(args[0]);
    long long now;
    if ((h == -1 && PyErr_Occurred()) || sim_now(p->sim, p->now_off, &now) < 0)
        return NULL;
    int rc = port_send(p, h, now);
    if (rc < 0)
        return NULL;
    return PyBool_FromLong(rc);
}

/* enqueue(h) -> bool: queue admission only (DropTailQueue.enqueue). */
static PyObject *
Port_enqueue(Port *p, PyObject *arg)
{
    Py_ssize_t h = PyLong_AsSsize_t(arg);
    if (h == -1 && PyErr_Occurred())
        return NULL;
    int rc = port_admit(p, h);
    if (rc < 0)
        return NULL;
    return PyBool_FromLong(rc);
}

/* dequeue() -> handle or None (DropTailQueue.dequeue). */
static PyObject *
Port_dequeue(Port *p, PyObject *Py_UNUSED(ignored))
{
    Py_ssize_t h;
    long long wire;
    int got = port_pop(p, &h, &wire);
    if (got < 0)
        return NULL;
    if (got == 0)
        Py_RETURN_NONE;
    return PyLong_FromSsize_t(h);
}

static Py_ssize_t
Port_len(PyObject *op)
{
    return ((Port *)op)->count;
}

/* iter(port): the queued handles, head of line first. */
static PyObject *
Port_iter(PyObject *op)
{
    Port *p = (Port *)op;
    PyObject *handles = PyList_New(p->count);
    if (handles == NULL)
        return NULL;
    for (Py_ssize_t i = 0; i < p->count; i++) {
        PyObject *h = PyLong_FromSsize_t(p->ring[(p->head + i) % p->cap]);
        if (h == NULL) {
            Py_DECREF(handles);
            return NULL;
        }
        PyList_SET_ITEM(handles, i, h);
    }
    PyObject *it = PyObject_GetIter(handles);
    Py_DECREF(handles);
    return it;
}

/* A threshold reads None when disabled. */
static PyObject *
threshold_get(char has, long long value)
{
    if (!has)
        Py_RETURN_NONE;
    return PyLong_FromLongLong(value);
}

static int
threshold_set(PyObject *v, char *has, long long *value)
{
    if (v == NULL) {
        PyErr_SetString(PyExc_AttributeError, "cannot delete a threshold");
        return -1;
    }
    if (v == Py_None) {
        *has = 0;
        return 0;
    }
    long long x = PyLong_AsLongLong(v);
    if (x == -1 && PyErr_Occurred())
        return -1;
    *has = 1;
    *value = x;
    return 0;
}

static PyObject *
Port_get_ecn(Port *p, void *Py_UNUSED(c))
{
    return threshold_get(p->has_ecn, p->ecn_threshold);
}

static int
Port_set_ecn(Port *p, PyObject *v, void *Py_UNUSED(c))
{
    return threshold_set(v, &p->has_ecn, &p->ecn_threshold);
}

static PyObject *
Port_get_inc(Port *p, void *Py_UNUSED(c))
{
    return threshold_get(p->has_inc, p->inc_threshold);
}

static int
Port_set_inc(Port *p, PyObject *v, void *Py_UNUSED(c))
{
    return threshold_set(v, &p->has_inc, &p->inc_threshold);
}

static PyGetSetDef Port_getset[] = {
    {"ecn_threshold_bytes", (getter)Port_get_ecn, (setter)Port_set_ecn, NULL, NULL},
    {"inc_threshold_bytes", (getter)Port_get_inc, (setter)Port_set_inc, NULL, NULL},
    {NULL},
};

#define PORT_LL(name) {#name, T_LONGLONG, offsetof(Port, name), 0, NULL}
#define PORT_OBJ(name) {#name, T_OBJECT, offsetof(Port, name), 0, NULL}

static PyMemberDef Port_members[] = {
    PORT_LL(capacity_bytes),
    PORT_LL(occupancy_bytes),
    PORT_LL(enqueued_packets),
    PORT_LL(enqueued_bytes),
    PORT_LL(dequeued_packets),
    PORT_LL(dequeued_bytes),
    PORT_LL(dropped_packets),
    PORT_LL(dropped_bytes),
    PORT_LL(marked_packets),
    PORT_LL(inc_marked_packets),
    PORT_OBJ(on_drop),
    PORT_OBJ(on_mark),
    PORT_OBJ(on_enqueue),
    {"busy", T_BOOL, offsetof(Port, busy), READONLY, NULL},
    PORT_LL(tx_packets),
    PORT_LL(tx_bytes),
    PORT_LL(rate_bps),
    PORT_LL(prop_delay_ns),
    PORT_LL(delivered_packets),
    PORT_LL(delivered_bytes),
    PORT_OBJ(arrival),
    PORT_OBJ(propagate),
    PORT_OBJ(serialize),
    {NULL},
};

static PyMethodDef Port_methods[] = {
    {"enqueue", (PyCFunction)Port_enqueue, METH_O,
     "enqueue(h) -> bool: mark and admit (or drop and free) without pumping."},
    {"dequeue", (PyCFunction)Port_dequeue, METH_NOARGS,
     "dequeue() -> head-of-line handle, or None when empty."},
    {NULL, NULL, 0, NULL},
};

static int
Port_traverse(Port *p, visitproc visit, void *arg)
{
    Py_VISIT(p->core);
    Py_VISIT(p->sim);
    Py_VISIT(p->pool);
    Py_VISIT(p->on_drop);
    Py_VISIT(p->on_mark);
    Py_VISIT(p->on_enqueue);
    Py_VISIT(p->arrival);
    Py_VISIT(p->propagate);
    Py_VISIT(p->serialize);
    return 0;
}

static int
Port_clear(Port *p)
{
    Py_CLEAR(p->core);
    Py_CLEAR(p->sim);
    Py_CLEAR(p->pool);
    Py_CLEAR(p->on_drop);
    Py_CLEAR(p->on_mark);
    Py_CLEAR(p->on_enqueue);
    Py_CLEAR(p->arrival);
    Py_CLEAR(p->propagate);
    Py_CLEAR(p->serialize);
    return 0;
}

static void
Port_dealloc(Port *p)
{
    PyObject_GC_UnTrack(p);
    Port_clear(p);
    PyMem_Free(p->ring);
    Py_TYPE(p)->tp_free((PyObject *)p);
}

static PySequenceMethods Port_as_sequence = {
    .sq_length = Port_len,
};

static PyTypeObject PortType = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "_evcore.Port",
    .tp_basicsize = sizeof(Port),
    .tp_flags = Py_TPFLAGS_DEFAULT | Py_TPFLAGS_HAVE_GC | Py_TPFLAGS_HAVE_VECTORCALL,
    .tp_doc = "One egress direction's pump: queue, transmitter and link, owned in C.\n"
              "Calling the port sends a packet handle; len() and iter() give the queued\n"
              "handles, head of line first.  Made by EventCore.port().",
    .tp_vectorcall_offset = offsetof(Port, vectorcall),
    .tp_call = PyVectorcall_Call,
    .tp_dealloc = (destructor)Port_dealloc,
    .tp_traverse = (traverseproc)Port_traverse,
    .tp_clear = (inquiry)Port_clear,
    .tp_free = PyObject_GC_Del,
    .tp_iter = Port_iter,
    .tp_methods = Port_methods,
    .tp_members = Port_members,
    .tp_getset = Port_getset,
    .tp_as_sequence = &Port_as_sequence,
};

static int
Demux_traverse(Demux *d, visitproc visit, void *arg)
{
    Py_VISIT(d->table);
    Py_VISIT(d->keys);
    Py_VISIT(d->fallback);
    return 0;
}

static int
Demux_clear(Demux *d)
{
    Py_CLEAR(d->table);
    Py_CLEAR(d->keys);
    Py_CLEAR(d->fallback);
    return 0;
}

static void
Demux_dealloc(Demux *d)
{
    PyObject_GC_UnTrack(d);
    Demux_clear(d);
    Py_TYPE(d)->tp_free((PyObject *)d);
}

static PyTypeObject DemuxType = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "_evcore.Demux",
    .tp_basicsize = sizeof(Demux),
    .tp_flags = Py_TPFLAGS_DEFAULT | Py_TPFLAGS_HAVE_GC,
    .tp_doc = "A switch's or host's arrival demultiplexer; made by EventCore.demux().",
    .tp_dealloc = (destructor)Demux_dealloc,
    .tp_traverse = (traverseproc)Demux_traverse,
    .tp_clear = (inquiry)Demux_clear,
    .tp_free = PyObject_GC_Del,
};

/* ------------------------------------------------------------------ */
/* Receiver: a TcpReceiver's per-segment work, state in C.             *
 *                                                                    *
 * Mirrors repro/tcp/receiver.py's TcpReceiver.on_packet / _buffer /   *
 * _advance / _ack_policy / _send_ack step for step: the same          *
 * counters, the same operations on the same out-of-order dict (so its *
 * iteration order, and with it the partial-overlap scan, is the       *
 * Python receiver's), the same ledger columns, and the ACK allocated  *
 * from the same Pool with a packet id drawn from sim._packet_seq.     *
 * Calling the receiver *is* its on_packet; Python is re-entered only  *
 * for on_data, on_complete, and a send that is not a native Port.     */

struct Receiver {
    PyObject_HEAD
    vectorcallfunc vectorcall;      /* calling the receiver is on_packet(h) */
    PyObject *owner;                /* owned: the TcpReceiver, on_complete's argument */
    PyObject *sim;                  /* owned; NULL until bind() */
    Py_ssize_t now_off, pseq_off;   /* __slots__ offsets of sim.now and sim._packet_seq */
    Pool *pool;                     /* owned */
    PyObject *send;                 /* owned: the host's NIC Port, or a send callable */
    PyObject *rcv_nxt, *delivered;  /* owned ledger columns */
    Py_ssize_t slot;                /* this flow's ledger row */
    PyObject *flow_id, *src, *dst;  /* owned: the ACK's header fields */
    PyObject *ooo;                  /* owned dict: seq -> end of a buffered segment */
    PyObject *on_data, *on_complete;
    char has_expected, done, inc_echo;
    long long expected_bytes;
    long long data_packets_received, duplicate_packets_received;
    long long ce_packets_received, reordered_packets;
};

static int
ledger_get(PyObject *col, Py_ssize_t slot, long long *out)
{
    if ((size_t)slot >= (size_t)PyList_GET_SIZE(col)) {
        PyErr_Format(PyExc_IndexError, "ledger slot %zd out of range", slot);
        return -1;
    }
    *out = PyLong_AsLongLong(PyList_GET_ITEM(col, slot));
    return (*out == -1 && PyErr_Occurred()) ? -1 : 0;
}

static int
ledger_set(PyObject *col, Py_ssize_t slot, long long value)
{
    PyObject *boxed = PyLong_FromLongLong(value);
    if (boxed == NULL)
        return -1;
    return PyList_SetItem(col, slot, boxed);  /* steals boxed */
}

/* An int key or value of the out-of-order dict as a C integer. */
static inline int
as_ll(PyObject *v, long long *out)
{
    *out = PyLong_AsLongLong(v);
    return (*out == -1 && PyErr_Occurred()) ? -1 : 0;
}

/* TcpReceiver._buffer: keep the longer of two segments at one seq. */
static int
receiver_buffer(PyObject *ooo, long long seq, long long end)
{
    PyObject *key = PyLong_FromLongLong(seq);
    if (key == NULL)
        return -1;
    int rc = 0;
    long long existing = 0;
    PyObject *found = PyDict_GetItemWithError(ooo, key);
    if (found == NULL && PyErr_Occurred())
        rc = -1;
    else if (found != NULL && as_ll(found, &existing) < 0)
        rc = -1;
    else if (found == NULL || existing < end) {
        PyObject *value = PyLong_FromLongLong(end);
        rc = value == NULL ? -1 : PyDict_SetItem(ooo, key, value);
        Py_XDECREF(value);
    }
    Py_DECREF(key);
    return rc;
}

/* One step of TcpReceiver._advance's pull loop: the segment buffered at
 * *rcv_nxt, else the first (in dict order) that straddles it.  1 moved,
 * 0 nothing to pull, -1 error. */
static int
receiver_pull(PyObject *ooo, long long *rcv_nxt)
{
    PyObject *key = PyLong_FromLongLong(*rcv_nxt);
    if (key == NULL)
        return -1;
    PyObject *found = PyDict_GetItemWithError(ooo, key);
    if (found != NULL) {
        long long end;
        int rc = as_ll(found, &end) < 0 ? -1 : PyDict_DelItem(ooo, key);
        Py_DECREF(key);
        if (rc < 0)
            return -1;
        if (end > *rcv_nxt)
            *rcv_nxt = end;
        return 1;
    }
    Py_DECREF(key);
    if (PyErr_Occurred())
        return -1;
    /* A retransmission after a partial overlap can start below rcv_nxt
     * but extend past it; scan for such a segment. */
    Py_ssize_t pos = 0;
    PyObject *k, *v;
    while (PyDict_Next(ooo, &pos, &k, &v)) {
        long long seq, end;
        if (as_ll(k, &seq) < 0 || as_ll(v, &end) < 0)
            return -1;
        if (seq <= *rcv_nxt && *rcv_nxt < end) {
            Py_INCREF(k);
            int rc = PyDict_DelItem(ooo, k);
            Py_DECREF(k);
            if (rc < 0)
                return -1;
            *rcv_nxt = end;
            return 1;
        }
    }
    return 0;
}

/* Drop every buffered segment that ends at or below rcv_nxt. */
static int
receiver_purge(PyObject *ooo, long long rcv_nxt)
{
    PyObject *stale = PyList_New(0);
    if (stale == NULL)
        return -1;
    Py_ssize_t pos = 0;
    PyObject *k, *v;
    int rc = 0;
    while (rc == 0 && PyDict_Next(ooo, &pos, &k, &v)) {
        long long end;
        if (as_ll(v, &end) < 0)
            rc = -1;
        else if (end <= rcv_nxt)
            rc = PyList_Append(stale, k);
    }
    for (Py_ssize_t i = 0; rc == 0 && i < PyList_GET_SIZE(stale); i++)
        rc = PyDict_DelItem(ooo, PyList_GET_ITEM(stale, i));
    Py_DECREF(stale);
    return rc;
}

/* TcpReceiver._buffer(seq, end) then _advance(): reassemble, move the
 * ledger's rcv_nxt and bytes_delivered, report new data to on_data. */
static int
receiver_reassemble(Receiver *r, long long seq, long long end)
{
    long long before;
    if (ledger_get(r->rcv_nxt, r->slot, &before) < 0)
        return -1;
    long long rcv_nxt = before;
    PyObject *ooo = r->ooo;
    Py_INCREF(ooo);  /* on_data may rebind _ooo; this call keeps its dict */
    if (PyDict_GET_SIZE(ooo) == 0 && seq <= rcv_nxt) {
        /* In order into an empty buffer: the entry _buffer files is
         * pulled straight back out, leaving the buffer empty. */
        rcv_nxt = end;
    } else {
        if (receiver_buffer(ooo, seq, end) < 0)
            goto error;
        int moved;
        while ((moved = receiver_pull(ooo, &rcv_nxt)) > 0)
            ;
        if (moved < 0)
            goto error;
    }
    if (ledger_set(r->rcv_nxt, r->slot, rcv_nxt) < 0)
        goto error;
    long long delivered = rcv_nxt - before;
    if (delivered > 0) {
        long long total;
        if (ledger_get(r->delivered, r->slot, &total) < 0 ||
            ledger_set(r->delivered, r->slot, total + delivered) < 0)
            goto error;
        if (IS_SET(r->on_data)) {
            PyObject *on_data = r->on_data;
            Py_INCREF(on_data);
            PyObject *res = PyObject_CallFunction(on_data, "L", delivered);
            Py_DECREF(on_data);
            if (res == NULL)
                goto error;
            Py_DECREF(res);
        }
    }
    if (PyDict_GET_SIZE(ooo) > 0 && receiver_purge(ooo, rcv_nxt) < 0)
        goto error;
    Py_DECREF(ooo);
    return 0;
error:
    Py_DECREF(ooo);
    return -1;
}

/* sim.next_packet_id(): a new reference to the next id. */
static PyObject *
receiver_packet_id(Receiver *r)
{
    PyObject *owned;
    PyObject *cur = field_get(r->sim, r->pseq_off, str_packet_seq, &owned);
    if (cur == NULL)
        return NULL;
    long long id;
    int rc = as_ll(cur, &id);
    Py_XDECREF(owned);
    if (rc < 0)
        return NULL;
    PyObject *next = PyLong_FromLongLong(id + 1);
    if (next == NULL || field_set(r->sim, r->pseq_off, str_packet_seq, next) < 0) {
        Py_XDECREF(next);
        return NULL;
    }
    return next;
}

/* TcpReceiver._send_ack(ece): the cumulative ACK, carrying the one-shot
 * INC echo, out through the host's NIC. */
static int
receiver_send_ack(Receiver *r, int ece, long long now)
{
    int inc = r->inc_echo;
    r->inc_echo = 0;
    if ((size_t)r->slot >= (size_t)PyList_GET_SIZE(r->rcv_nxt)) {
        PyErr_Format(PyExc_IndexError, "ledger slot %zd out of range", r->slot);
        return -1;
    }
    PyObject *ack_seq = PyList_GET_ITEM(r->rcv_nxt, r->slot);
    Py_INCREF(ack_seq);
    PyObject *packet_id = receiver_packet_id(r);
    if (packet_id == NULL) {
        Py_DECREF(ack_seq);
        return -1;
    }
    Pool *pool = r->pool;
    PyObject *vals[N_COLS] = {r->flow_id,    r->src,         r->dst,   long_zero,
                              long_zero,     ack_seq,        pool->ack_wire, packet_id};
    Py_ssize_t h = pool_alloc(pool, vals, F_ACK | (ece ? F_ECE : 0) | (inc ? F_INC : 0));
    Py_DECREF(ack_seq);
    Py_DECREF(packet_id);
    if (h < 0)
        return -1;
    if (Py_TYPE(r->send) == &PortType) {
        Port *port = (Port *)r->send;
        if (port->core == NULL) {
            PyErr_SetString(PyExc_RuntimeError, "port is detached from its event core");
            return -1;
        }
        return port_send(port, h, now) < 0 ? -1 : 0;
    }
    return call_with_handle(r->send, h);
}

/* TcpReceiver.on_packet(h) with the immediate per-segment ACK policy. */
static int
receiver_deliver(Receiver *r, Py_ssize_t h, long long now)
{
    Pool *pool = r->pool;
    if (r->sim == NULL || pool == NULL) {
        PyErr_SetString(PyExc_RuntimeError, "receiver is not bound to a simulation");
        return -1;
    }
    if (pool_check(pool, h) < 0)
        return -1;
    unsigned char flags = BYTES(pool->flags)[h];
    if (flags & F_ACK)  /* stray ACK routed to the receiver side; ignore */
        return pool_release(pool, h);
    long long seq, len;
    if (pool_get(pool, COL_SEQ, h, &seq) < 0 || pool_get(pool, COL_LEN, h, &len) < 0 ||
        pool_release(pool, h) < 0)
        return -1;
    long long end = seq + len;

    r->data_packets_received += 1;
    if (flags & F_CE)
        r->ce_packets_received += 1;
    if (flags & F_INC)
        r->inc_echo = 1;

    long long before, after;
    if (ledger_get(r->rcv_nxt, r->slot, &before) < 0)
        return -1;
    if (end <= before)
        r->duplicate_packets_received += 1;
    else if (receiver_reassemble(r, seq, end) < 0)
        return -1;
    if (ledger_get(r->rcv_nxt, r->slot, &after) < 0)
        return -1;
    if (after == before && end > before)
        r->reordered_packets += 1;

    if (receiver_send_ack(r, flags & F_CE, now) < 0)
        return -1;

    if (!r->done && r->has_expected) {
        if (ledger_get(r->rcv_nxt, r->slot, &after) < 0)
            return -1;
        if (after >= r->expected_bytes) {
            r->done = 1;
            if (IS_SET(r->on_complete)) {
                PyObject *on_complete = r->on_complete;
                Py_INCREF(on_complete);
                PyObject *res = PyObject_CallOneArg(on_complete, r->owner);
                Py_DECREF(on_complete);
                if (res == NULL)
                    return -1;
                Py_DECREF(res);
            }
        }
    }
    return 0;
}

static PyObject *
Receiver_vectorcall(PyObject *op, PyObject *const *args, size_t nargsf, PyObject *kwnames)
{
    Receiver *r = (Receiver *)op;
    if (PyVectorcall_NARGS(nargsf) != 1 || kwnames != NULL) {
        PyErr_SetString(PyExc_TypeError, "on_packet expects one packet handle");
        return NULL;
    }
    if (r->sim == NULL) {
        PyErr_SetString(PyExc_RuntimeError, "receiver is not bound to a simulation");
        return NULL;
    }
    Py_ssize_t h = PyLong_AsSsize_t(args[0]);
    long long now;
    if ((h == -1 && PyErr_Occurred()) || sim_now(r->sim, r->now_off, &now) < 0)
        return NULL;
    if (receiver_deliver(r, h, now) < 0)
        return NULL;
    Py_RETURN_NONE;
}

/* bind(sim, pool, send, rcv_nxt, bytes_delivered, slot, flow_id, src, dst) */
static PyObject *
Receiver_bind(Receiver *r, PyObject *const *args, Py_ssize_t nargs)
{
    if (nargs != 9 || Py_TYPE(args[1]) != &PoolType || !PyList_Check(args[3]) ||
        !PyList_Check(args[4])) {
        PyErr_SetString(PyExc_TypeError,
                        "bind expects (sim, pool: Pool, send, rcv_nxt: list, "
                        "bytes_delivered: list, slot, flow_id, src, dst)");
        return NULL;
    }
    if (r->sim != NULL) {
        PyErr_SetString(PyExc_RuntimeError, "receiver is already bound");
        return NULL;
    }
    Py_ssize_t slot = PyLong_AsSsize_t(args[5]);
    if (slot == -1 && PyErr_Occurred())
        return NULL;
    r->slot = slot;
    r->now_off = slot_offset(Py_TYPE(args[0]), str_now);
    r->pseq_off = slot_offset(Py_TYPE(args[0]), str_packet_seq);
    PyObject **fields[] = {&r->sim, (PyObject **)&r->pool, &r->send, &r->rcv_nxt,
                           &r->delivered};
    for (int i = 0; i < 5; i++) {
        Py_INCREF(args[i]);
        *fields[i] = args[i];
    }
    PyObject **ids[] = {&r->flow_id, &r->src, &r->dst};
    for (int i = 0; i < 3; i++) {
        Py_INCREF(args[6 + i]);
        Py_XSETREF(*ids[i], args[6 + i]);
    }
    Py_RETURN_NONE;
}

static PyObject *
Receiver_get_expected(Receiver *r, void *Py_UNUSED(c))
{
    return threshold_get(r->has_expected, r->expected_bytes);
}

static int
Receiver_set_expected(Receiver *r, PyObject *v, void *Py_UNUSED(c))
{
    return threshold_set(v, &r->has_expected, &r->expected_bytes);
}

static PyObject *
Receiver_get_ooo(Receiver *r, void *Py_UNUSED(c))
{
    if (r->ooo == NULL)
        Py_RETURN_NONE;
    Py_INCREF(r->ooo);
    return r->ooo;
}

static int
Receiver_set_ooo(Receiver *r, PyObject *v, void *Py_UNUSED(c))
{
    if (v == NULL || !PyDict_Check(v)) {
        PyErr_SetString(PyExc_TypeError, "the out-of-order buffer must be a dict");
        return -1;
    }
    Py_INCREF(v);
    Py_XSETREF(r->ooo, v);
    return 0;
}

static PyGetSetDef Receiver_getset[] = {
    {"expected_bytes", (getter)Receiver_get_expected, (setter)Receiver_set_expected, NULL, NULL},
    {"_ooo", (getter)Receiver_get_ooo, (setter)Receiver_set_ooo, NULL, NULL},
    {NULL},
};

#define RECV_LL(name) {#name, T_LONGLONG, offsetof(Receiver, name), 0, NULL}

static PyMemberDef Receiver_members[] = {
    {"on_data", T_OBJECT, offsetof(Receiver, on_data), 0, NULL},
    {"on_complete", T_OBJECT, offsetof(Receiver, on_complete), 0, NULL},
    {"_done", T_BOOL, offsetof(Receiver, done), 0, NULL},
    {"_inc_echo", T_BOOL, offsetof(Receiver, inc_echo), 0, NULL},
    RECV_LL(data_packets_received),
    RECV_LL(duplicate_packets_received),
    RECV_LL(ce_packets_received),
    RECV_LL(reordered_packets),
    {NULL},
};

static PyMethodDef Receiver_methods[] = {
    {"bind", (PyCFunction)(void (*)(void))Receiver_bind, METH_FASTCALL,
     "bind(sim, pool, send, rcv_nxt, bytes_delivered, slot, flow_id, src, dst): "
     "attach to the flow's ledger row, pool and NIC."},
    {NULL, NULL, 0, NULL},
};

static int
Receiver_traverse(Receiver *r, visitproc visit, void *arg)
{
    Py_VISIT(r->owner);
    Py_VISIT(r->sim);
    Py_VISIT(r->pool);
    Py_VISIT(r->send);
    Py_VISIT(r->rcv_nxt);
    Py_VISIT(r->delivered);
    Py_VISIT(r->flow_id);
    Py_VISIT(r->src);
    Py_VISIT(r->dst);
    Py_VISIT(r->ooo);
    Py_VISIT(r->on_data);
    Py_VISIT(r->on_complete);
    return 0;
}

static int
Receiver_clear(Receiver *r)
{
    Py_CLEAR(r->owner);
    Py_CLEAR(r->sim);
    Py_CLEAR(r->pool);
    Py_CLEAR(r->send);
    Py_CLEAR(r->rcv_nxt);
    Py_CLEAR(r->delivered);
    Py_CLEAR(r->flow_id);
    Py_CLEAR(r->src);
    Py_CLEAR(r->dst);
    Py_CLEAR(r->ooo);
    Py_CLEAR(r->on_data);
    Py_CLEAR(r->on_complete);
    return 0;
}

static void
Receiver_dealloc(Receiver *r)
{
    PyObject_GC_UnTrack(r);
    Receiver_clear(r);
    Py_TYPE(r)->tp_free((PyObject *)r);
}

static PyTypeObject ReceiverType = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "_evcore.Receiver",
    .tp_basicsize = sizeof(Receiver),
    .tp_flags = Py_TPFLAGS_DEFAULT | Py_TPFLAGS_HAVE_GC | Py_TPFLAGS_HAVE_VECTORCALL,
    .tp_doc = "A TcpReceiver's segment handling, owned in C.  Calling it is the\\n"
              "receiver's on_packet(h).  Made by EventCore.receiver().",
    .tp_vectorcall_offset = offsetof(Receiver, vectorcall),
    .tp_call = PyVectorcall_Call,
    .tp_dealloc = (destructor)Receiver_dealloc,
    .tp_traverse = (traverseproc)Receiver_traverse,
    .tp_clear = (inquiry)Receiver_clear,
    .tp_free = PyObject_GC_Del,
    .tp_methods = Receiver_methods,
    .tp_members = Receiver_members,
    .tp_getset = Receiver_getset,
};

/* run(sim, queue, until, limit, noop, freelist_max, evtype)
 *
 * The dispatch loop.  Mirrors Simulator.run()'s per-event pure-Python
 * loop exactly: same head-scan semantics (skip cancelled carcasses,
 * re-file deferred reschedules), same stop conditions after every
 * callback (_stop, then the event limit), same freelist recycling.  The
 * clock store is skipped when the timestamp repeats, which is observably
 * identical.  A port's serialization-finish and a demux's arrival run in
 * C; every other light event calls its Python callback.
 *
 * Returns the number of events processed.
 */
static PyObject *
EventCore_run(EventCore *self, PyObject *const *args, Py_ssize_t nargs)
{
    if (nargs != 7) {
        PyErr_SetString(
            PyExc_TypeError,
            "run expects (sim, queue, until, limit, noop, freelist_max, evtype)");
        return NULL;
    }
    PyObject *sim = args[0];
    PyObject *queue = args[1];
    PyObject *until_obj = args[2];
    long long limit = PyLong_AsLongLong(args[3]);
    PyObject *noop = args[4];
    Py_ssize_t freelist_max = PyLong_AsSsize_t(args[5]);
    if (PyErr_Occurred())
        return NULL;
    if (!PyType_Check(args[6])) {
        PyErr_SetString(PyExc_TypeError, "evtype must be the Event class");
        return NULL;
    }
    PyTypeObject *evtype = (PyTypeObject *)args[6];

    int have_until = (until_obj != Py_None);
    long long until = 0;
    if (have_until) {
        until = PyLong_AsLongLong(until_obj);
        if (until == -1 && PyErr_Occurred())
            return NULL;
    }

    Offsets off;
    off.now = slot_offset(Py_TYPE(sim), str_now);
    off.stop = slot_offset(Py_TYPE(sim), str_stop);
    off.live = slot_offset(Py_TYPE(queue), str_live);
    off.cancelled = slot_offset(evtype, str_cancelled);
    off.deadline = slot_offset(evtype, str_deadline);
    off.time = slot_offset(evtype, str_time);
    off.seq = slot_offset(evtype, str_seq);
    off.dseq = slot_offset(evtype, str_dseq);
    off.callback = slot_offset(evtype, str_callback);
    off.args = slot_offset(evtype, str_args);

    PyObject *heap = PyObject_GetAttr(queue, str_heap);
    PyObject *free_list = PyObject_GetAttr(queue, str_free);
    if (heap == NULL || free_list == NULL) {
        Py_XDECREF(heap);
        Py_XDECREF(free_list);
        return NULL;
    }

    long long processed = 0;
    long long last_now = -1;

    while (processed < limit) {
        /* -- establish the live head of the object heap ------------- */
        long long s_time = 0, s_seq = 0;
        int have_slow = 0;
        while (PyList_GET_SIZE(heap) > 0) {
            PyObject *entry = PyList_GET_ITEM(heap, 0);
            PyObject *ev = PyTuple_GET_ITEM(entry, 2);
            PyObject *owned;
            PyObject *flag = field_get(ev, off.cancelled, str_cancelled, &owned);
            if (flag == NULL)
                goto error;
            int cancelled = (flag == Py_True);
            Py_XDECREF(owned);
            if (cancelled) {
                PyObject *dead = obj_heap_pop(heap);
                if (dead == NULL)
                    goto error;
                if (PyList_GET_SIZE(free_list) < freelist_max) {
                    if (PyList_Append(free_list, ev) < 0) {
                        Py_DECREF(dead);
                        goto error;
                    }
                }
                Py_DECREF(dead);
                continue;
            }
            PyObject *dl_obj = field_get(ev, off.deadline, str_deadline, &owned);
            if (dl_obj == NULL)
                goto error;
            long long deadline = PyLong_AsLongLong(dl_obj);
            Py_XDECREF(owned);
            if (deadline == -1 && PyErr_Occurred())
                goto error;
            long long etime = PyLong_AsLongLong(PyTuple_GET_ITEM(entry, 0));
            if (etime == -1 && PyErr_Occurred())
                goto error;
            if (deadline > etime) {
                /* stale slot from a reschedule: re-file at the true
                 * deadline under the deferred sequence number */
                PyObject *dseq_owned;
                PyObject *dseq = field_get(ev, off.dseq, str_dseq, &dseq_owned);
                if (dseq == NULL)
                    goto error;
                if (dseq_owned == NULL)
                    Py_INCREF(dseq);  /* normalize: hold our own ref */
                PyObject *dl_new = PyLong_FromLongLong(deadline);
                if (dl_new == NULL) {
                    Py_DECREF(dseq);
                    goto error;
                }
                if (field_set(ev, off.time, str_time, dl_new) < 0 ||
                    field_set(ev, off.seq, str_seq, dseq) < 0) {
                    Py_DECREF(dl_new);
                    Py_DECREF(dseq);
                    goto error;
                }
                PyObject *refiled = PyTuple_Pack(3, dl_new, dseq, ev);
                Py_DECREF(dl_new);
                Py_DECREF(dseq);
                if (refiled == NULL)
                    goto error;
                if (obj_heap_replace(heap, refiled) < 0)
                    goto error;
                continue;
            }
            s_time = etime;
            s_seq = PyLong_AsLongLong(PyTuple_GET_ITEM(entry, 1));
            if (s_seq == -1 && PyErr_Occurred())
                goto error;
            have_slow = 1;
            break;
        }

        /* -- pick the global minimum across both heaps --------------- */
        int take_light;
        long long ev_time;
        if (self->size > 0) {
            if (have_slow && (s_time < self->heap[0].t ||
                              (s_time == self->heap[0].t && s_seq < self->heap[0].s))) {
                take_light = 0;
                ev_time = s_time;
            } else {
                take_light = 1;
                ev_time = self->heap[0].t;
            }
        } else if (have_slow) {
            take_light = 0;
            ev_time = s_time;
        } else {
            break;  /* idle */
        }

        if (have_until && ev_time > until) {
            /* Head lies beyond the bound: advance the clock to `until`
             * and leave the event queued (pure loop does the same). */
            if (until != last_now) {
                PyObject *now = PyLong_FromLongLong(until);
                if (now == NULL || field_set(sim, off.now, str_now, now) < 0) {
                    Py_XDECREF(now);
                    goto error;
                }
                Py_DECREF(now);
            }
            break;
        }

        if (ev_time != last_now) {
            PyObject *now = PyLong_FromLongLong(ev_time);
            if (now == NULL || field_set(sim, off.now, str_now, now) < 0) {
                Py_XDECREF(now);
                goto error;
            }
            Py_DECREF(now);
            last_now = ev_time;
        }

        /* -- dispatch ------------------------------------------------ */
        if (take_light) {
            LEntry e;
            int rc;
            core_pop_entry(self, &e);
            if (e.kind == LK_FINISH) {
                rc = port_finish((Port *)e.cb, e.h, ev_time);
            } else if (e.kind == LK_ARRIVE) {
                rc = demux_deliver((Demux *)e.cb, e.h, ev_time);
            } else {
                PyObject *res = PyObject_CallOneArg(e.cb, e.arg);
                rc = res == NULL ? -1 : 0;
                Py_XDECREF(res);
            }
            Py_DECREF(e.cb);
            Py_XDECREF(e.arg);
            if (rc < 0)
                goto error;
        } else {
            PyObject *entry = obj_heap_pop(heap);
            if (entry == NULL)
                goto error;
            PyObject *ev = PyTuple_GET_ITEM(entry, 2);
            Py_INCREF(ev);
            Py_DECREF(entry);
            if (field_set(ev, off.deadline, str_deadline, long_minus_one) < 0) {
                Py_DECREF(ev);
                goto error;
            }
            /* queue._live -= 1 */
            PyObject *owned;
            PyObject *live = field_get(queue, off.live, str_live, &owned);
            if (live == NULL) {
                Py_DECREF(ev);
                goto error;
            }
            long long nlive = PyLong_AsLongLong(live);
            Py_XDECREF(owned);
            PyObject *nlive_obj = PyLong_FromLongLong(nlive - 1);
            if (nlive_obj == NULL ||
                field_set(queue, off.live, str_live, nlive_obj) < 0) {
                Py_XDECREF(nlive_obj);
                Py_DECREF(ev);
                goto error;
            }
            Py_DECREF(nlive_obj);
            PyObject *cb_owned, *args_owned;
            PyObject *cb = field_get(ev, off.callback, str_callback, &cb_owned);
            if (cb == NULL) {
                Py_DECREF(ev);
                goto error;
            }
            if (cb_owned == NULL)
                Py_INCREF(cb);  /* hold across the call */
            PyObject *cargs = field_get(ev, off.args, str_args, &args_owned);
            if (cargs == NULL) {
                Py_DECREF(cb);
                Py_DECREF(ev);
                goto error;
            }
            if (args_owned == NULL)
                Py_INCREF(cargs);
            PyObject *res = PyObject_Call(cb, cargs, NULL);
            Py_DECREF(cb);
            Py_DECREF(cargs);
            if (res == NULL) {
                Py_DECREF(ev);
                goto error;
            }
            Py_DECREF(res);
            if (PyList_GET_SIZE(free_list) < freelist_max) {
                if (field_set(ev, off.callback, str_callback, noop) < 0 ||
                    field_set(ev, off.args, str_args, empty_tuple) < 0 ||
                    PyList_Append(free_list, ev) < 0) {
                    Py_DECREF(ev);
                    goto error;
                }
            }
            Py_DECREF(ev);
        }
        processed += 1;

        /* -- stop request, checked after every event as the pure loop does */
        PyObject *stop_owned;
        PyObject *stop_flag = field_get(sim, off.stop, str_stop, &stop_owned);
        if (stop_flag == NULL)
            goto error;
        int stop = (stop_flag == Py_True);
        Py_XDECREF(stop_owned);
        if (stop)
            break;
    }

    Py_DECREF(heap);
    Py_DECREF(free_list);
    bump_processed(sim, processed);
    return PyLong_FromLongLong(processed);

error:
    Py_DECREF(heap);
    Py_DECREF(free_list);
    bump_processed(sim, processed);
    return NULL;
}

/* port(sim, pool): a new idle, empty Port on this core, moving handles
 * of `pool` (an EventCore.pool()).  The caller fills in its queue and
 * link parameters. */
static PyObject *
EventCore_port(EventCore *self, PyObject *const *args, Py_ssize_t nargs)
{
    if (nargs != 2 || Py_TYPE(args[1]) != &PoolType) {
        PyErr_SetString(PyExc_TypeError, "port expects (sim, pool: Pool)");
        return NULL;
    }
    Port *p = PyObject_GC_New(Port, &PortType);
    if (p == NULL)
        return NULL;
    /* PyObject_GC_New leaves the body uninitialized. */
    memset((char *)p + sizeof(PyObject), 0, sizeof(Port) - sizeof(PyObject));
    p->vectorcall = Port_vectorcall;
    Py_INCREF(self);
    p->core = self;
    Py_INCREF(args[0]);
    p->sim = args[0];
    p->now_off = slot_offset(Py_TYPE(args[0]), str_now);
    Py_INCREF(args[1]);
    p->pool = (Pool *)args[1];
    PyObject_GC_Track(p);
    return (PyObject *)p;
}

/* pool(reference, error, header_bytes, ack_bytes, unassigned_id): the
 * handle lifecycle over a PacketPool's columns, freelist and counters;
 * `error` is raised on a bad free. */
static PyObject *
EventCore_pool(EventCore *self, PyObject *const *args, Py_ssize_t nargs)
{
    if (nargs != 5 || !PyExceptionClass_Check(args[1])) {
        PyErr_SetString(PyExc_TypeError,
                        "pool expects (reference, error, header_bytes, ack_bytes, unassigned_id)");
        return NULL;
    }
    long long header = PyLong_AsLongLong(args[2]);
    if (header == -1 && PyErr_Occurred())
        return NULL;
    Pool *p = PyObject_GC_New(Pool, &PoolType);
    if (p == NULL)
        return NULL;
    memset((char *)p + sizeof(PyObject), 0, sizeof(Pool) - sizeof(PyObject));
    PyObject *ref = args[0];
    for (int i = 0; i < N_COLS; i++) {
        p->cols[i] = PyObject_GetAttrString(ref, pool_columns[i]);
        if (p->cols[i] == NULL || !PyList_Check(p->cols[i]))
            goto bad_layout;
    }
    p->flags = PyObject_GetAttrString(ref, "flags");
    p->live = PyObject_GetAttrString(ref, "live");
    p->free = PyObject_GetAttrString(ref, "_free");
    if (p->flags == NULL || p->live == NULL || p->free == NULL ||
        !PyByteArray_Check(p->flags) || !PyByteArray_Check(p->live) || !PyList_Check(p->free))
        goto bad_layout;
    long long *counters[] = {&p->capacity, &p->allocated_total, &p->freed_total};
    const char *names[] = {"capacity", "allocated_total", "freed_total"};
    for (int i = 0; i < 3; i++) {
        PyObject *v = PyObject_GetAttrString(ref, names[i]);
        if (v == NULL)
            goto error;
        *counters[i] = PyLong_AsLongLong(v);
        Py_DECREF(v);
        if (*counters[i] == -1 && PyErr_Occurred())
            goto error;
    }
    p->header_bytes = header;
    Py_INCREF(args[1]);
    p->error = args[1];
    Py_INCREF(args[3]);
    p->ack_wire = args[3];
    Py_INCREF(args[4]);
    p->unassigned = args[4];
    PyObject_GC_Track(p);
    return (PyObject *)p;
bad_layout:
    if (!PyErr_Occurred())
        PyErr_SetString(PyExc_TypeError, "pool needs list columns, bytearray flags/live and a list freelist");
error:
    Py_DECREF(p);
    return NULL;
}

/* receiver(owner): the C half of TcpReceiver `owner`, unbound (see
 * Receiver.bind), with an empty out-of-order buffer. */
static PyObject *
EventCore_receiver(EventCore *self, PyObject *owner)
{
    Receiver *r = PyObject_GC_New(Receiver, &ReceiverType);
    if (r == NULL)
        return NULL;
    memset((char *)r + sizeof(PyObject), 0, sizeof(Receiver) - sizeof(PyObject));
    r->vectorcall = Receiver_vectorcall;
    r->now_off = r->pseq_off = -1;
    Py_INCREF(owner);
    r->owner = owner;
    r->ooo = PyDict_New();
    if (r->ooo == NULL) {
        Py_DECREF(r);
        return NULL;
    }
    PyObject_GC_Track(r);
    return (PyObject *)r;
}

/* demux(table, keys, fallback): a node's arrival demultiplexer. */
static PyObject *
EventCore_demux(EventCore *self, PyObject *const *args, Py_ssize_t nargs)
{
    if (nargs != 3 || !PyDict_Check(args[0]) || !PyList_Check(args[1])) {
        PyErr_SetString(PyExc_TypeError, "demux expects (table: dict, keys: list, fallback)");
        return NULL;
    }
    Demux *d = PyObject_GC_New(Demux, &DemuxType);
    if (d == NULL)
        return NULL;
    Py_INCREF(args[0]);
    d->table = args[0];
    Py_INCREF(args[1]);
    d->keys = args[1];
    Py_INCREF(args[2]);
    d->fallback = args[2];
    PyObject_GC_Track(d);
    return (PyObject *)d;
}

static PyMethodDef EventCore_methods[] = {
    {"take_seq", (PyCFunction)EventCore_take_seq, METH_NOARGS,
     "Consume and return the next global sequence number."},
    {"push", (PyCFunction)(void (*)(void))EventCore_push, METH_FASTCALL,
     "push(time, callback, arg): schedule a light event at absolute time."},
    {"peek_time", (PyCFunction)EventCore_peek_time, METH_NOARGS,
     "Earliest pending light-event time, or None."},
    {"clear", (PyCFunction)EventCore_clear, METH_NOARGS,
     "Drop all pending light events."},
    {"run", (PyCFunction)(void (*)(void))EventCore_run, METH_FASTCALL,
     "Dispatch events until idle or a stop condition; returns count."},
    {"port", (PyCFunction)(void (*)(void))EventCore_port, METH_FASTCALL,
     "port(sim, pool): a native output port on this core."},
    {"demux", (PyCFunction)(void (*)(void))EventCore_demux, METH_FASTCALL,
     "demux(table, keys, fallback): a node's native arrival demultiplexer."},
    {"pool", (PyCFunction)(void (*)(void))EventCore_pool, METH_FASTCALL,
     "pool(reference, error, header_bytes, ack_bytes, unassigned_id): native pool ops."},
    {"receiver", (PyCFunction)EventCore_receiver, METH_O,
     "receiver(owner): the native half of a TcpReceiver, to be bound."},
    {NULL, NULL, 0, NULL},
};

static PySequenceMethods EventCore_as_sequence = {
    .sq_length = EventCore_len,
};

static PyTypeObject EventCoreType = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "_evcore.EventCore",
    .tp_basicsize = sizeof(EventCore),
    .tp_flags = Py_TPFLAGS_DEFAULT | Py_TPFLAGS_HAVE_GC,
    .tp_doc = "Native light-event heap, fused dispatch loop, and port, demux, pool and\n"
              "receiver factory.",
    .tp_new = EventCore_new,
    .tp_dealloc = (destructor)EventCore_dealloc,
    .tp_traverse = (traverseproc)EventCore_traverse,
    .tp_clear = (inquiry)EventCore_tp_clear,
    .tp_free = PyObject_GC_Del,
    .tp_methods = EventCore_methods,
    .tp_as_sequence = &EventCore_as_sequence,
};

static struct PyModuleDef evcore_module = {
    PyModuleDef_HEAD_INIT,
    .m_name = "_evcore",
    .m_doc = "Native event core for repro.sim (see repro/sim/_native.py).",
    .m_size = -1,
};

PyMODINIT_FUNC
PyInit__evcore(void)
{
#define INTERN(var, s)                         \
    do {                                       \
        var = PyUnicode_InternFromString(s);   \
        if (var == NULL)                       \
            return NULL;                       \
    } while (0)
    INTERN(str_now, "now");
    INTERN(str_stop, "_stop");
    INTERN(str_heap, "_heap");
    INTERN(str_free, "_free");
    INTERN(str_live, "_live");
    INTERN(str_cancelled, "cancelled");
    INTERN(str_deadline, "deadline");
    INTERN(str_time, "time");
    INTERN(str_seq, "seq");
    INTERN(str_dseq, "_dseq");
    INTERN(str_callback, "callback");
    INTERN(str_args, "args");
    INTERN(str_processed, "events_processed");
    INTERN(str_packet_seq, "_packet_seq");
#undef INTERN
    long_minus_one = PyLong_FromLong(-1);
    long_zero = PyLong_FromLong(0);
    empty_tuple = PyTuple_New(0);
    if (long_minus_one == NULL || long_zero == NULL || empty_tuple == NULL)
        return NULL;
    if (PyType_Ready(&EventCoreType) < 0 || PyType_Ready(&PoolType) < 0 ||
        PyType_Ready(&PortType) < 0 || PyType_Ready(&DemuxType) < 0 ||
        PyType_Ready(&ReceiverType) < 0)
        return NULL;
    PyObject *m = PyModule_Create(&evcore_module);
    if (m == NULL)
        return NULL;
    Py_INCREF(&EventCoreType);
    if (PyModule_AddObject(m, "EventCore", (PyObject *)&EventCoreType) < 0) {
        Py_DECREF(&EventCoreType);
        Py_DECREF(m);
        return NULL;
    }
    return m;
}

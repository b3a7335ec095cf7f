"""Lock-intensive microbenchmark generation and in-order core execution.

Each thread repeats: a non-critical phase of LOAD/STORE pairs over its
private scratch region, then LOCK / CRIT_ENTER / increment every shared
counter / CRIT_EXIT / UNLOCK. The crit markers sit inside the lock, so
lock and unlock memory traffic itself is never tagged critical.

Scratch pairs walk fresh blocks (no reuse across pairs or iterations), so
the non-critical phase keeps producing cache-cold misses instead of
degenerating into L1 hits after the first iteration.

Instructions are computed on demand: a thread's program is a
`ThreadProgram` that yields them in order, and every thread shares one
locked-section tuple, so a program takes O(threads + counters) memory
however large iters x noncrit_work grows.

A core runs its thread's program as a coroutine, in which locking is a
test-and-test-and-set loop: spin with LOAD until the lock word reads 0,
then attempt an atomic test-and-set (a GETX-backed read-modify-write);
on failure go back to spinning.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass, field

# Instruction opcodes (instructions are tuples starting with one of these).
LOAD = "load"
STORE = "store"          # ("store", addr, value) with value int or "inc"
LOCK = "lock"
UNLOCK = "unlock"
CRIT_ENTER = "crit_enter"
CRIT_EXIT = "crit_exit"

INC = "inc"              # store value = last loaded value + 1


class WorkloadError(ValueError):
    """A program cannot be built (shape, address map) or misbehaves at run
    time (crit-marker misuse, unknown opcode)."""


@dataclass
class Program:
    threads: list
    lock_addr: int
    counter_addrs: list

    def dump(self, out):
        """Line-oriented text form of every thread's instruction sequence."""
        for tid, seq in enumerate(self.threads):
            out.write("# thread %d (%d instructions)\n" % (tid, len(seq)))
            for ins in seq:
                op = ins[0]
                if op in (LOAD, LOCK, UNLOCK):
                    out.write("T%d %s %#x\n" % (tid, op.upper(), ins[1]))
                elif op == STORE:
                    out.write("T%d STORE %#x %s\n" % (tid, ins[1], ins[2]))
                else:
                    out.write("T%d %s\n" % (tid, op.upper()))


def gen_microbenchmark(n_threads, n_counters, iters, noncrit_work,
                       block_bytes=64, mem_bytes=512 * 1024 * 1024):
    """Build the shared-counter microbenchmark program.

    Address map: the lock takes block 0; counters occupy one block each
    starting at block 1 (their homes interleave across all nodes); each
    thread gets a private scratch region of iters * noncrit_work blocks.
    """
    if n_threads < 1 or n_counters < 1 or iters < 1 or noncrit_work < 0:
        raise WorkloadError("n_threads, n_counters, iters must be >= 1 "
                            "and noncrit_work >= 0")
    lock_addr = 0
    counter_addrs = [(1 + i) * block_bytes for i in range(n_counters)]
    scratch_first = 1 + n_counters
    per_thread_blocks = iters * noncrit_work
    top_block = scratch_first + n_threads * per_thread_blocks
    if top_block * block_bytes > mem_bytes:
        raise WorkloadError(
            "address map needs %d blocks (%d bytes) but memory holds %d bytes"
            % (top_block, top_block * block_bytes, mem_bytes))

    # The locked section is the same in every thread and iteration; its
    # tuples are immutable, so one copy is shared by all of them.
    section = [(LOCK, lock_addr), (CRIT_ENTER,)]
    for c in counter_addrs:
        section.append((LOAD, c))
        section.append((STORE, c, INC))
    section.append((CRIT_EXIT,))
    section.append((UNLOCK, lock_addr))
    section = tuple(section)

    threads = [ThreadProgram((scratch_first + t * per_thread_blocks)
                             * block_bytes, block_bytes, iters, noncrit_work,
                             section)
               for t in range(n_threads)]
    return Program(threads, lock_addr, counter_addrs)


@dataclass(frozen=True, slots=True)
class ThreadProgram:
    """One thread's instruction sequence, computed as it is read.

    Each of `iters` iterations is `noncrit_work` LOAD/STORE pairs over
    fresh scratch blocks, counted up from `scratch_addr`, then `section`.
    Sized and re-iterable like a list, in O(1) memory.
    """

    scratch_addr: int
    block_bytes: int
    iters: int
    noncrit_work: int
    section: tuple

    def __len__(self):
        return self.iters * (2 * self.noncrit_work + len(self.section))

    def __iter__(self):
        step = self.block_bytes
        span = self.noncrit_work * step
        base = self.scratch_addr
        for _ in range(self.iters):
            for a in range(base, base + span, step):
                yield (LOAD, a)
                yield (STORE, a, INC)
            base += span
            yield from self.section


@dataclass
class CoreState:
    """In-order core: one outstanding memory request, per-core crit flag.

    The core runs its program as a coroutine, `_execute`: each `step`
    resumes it with the response to the request it last issued and runs
    it to the next action. `program` is any iterable of instructions,
    read once and in order; `pc` counts the retired ones.
    """

    tid: int
    program: Iterable
    pc: int = field(default=0, init=False)
    crit: bool = False
    last_load: int = 0
    done: bool = False

    def __post_init__(self):
        self._run = self._execute()

    def step(self, response=None):
        """Retire the blocked op (if any) and run to the next boundary.

        Returns one of:
          ("mem", op, addr, value, crit)  -- issue a memory request and block.
             op: "load" | "store" | "rmw" | "spin". For "spin" the memory
             system completes the request only once the value reads 0.
          ("local", cycles)              -- local work, no memory traffic.
          ("done",)                      -- program finished.
        """
        return self._run.send(response)

    def _execute(self):
        """The program as a generator of `step`'s actions."""
        local = 0
        for ins in self.program:
            op = ins[0]
            if op == CRIT_ENTER or op == CRIT_EXIT:
                apply_crit_marker(self, op)
                self.pc += 1
                local += 1
                continue
            if local:
                # charge marker cycles before issuing the next memory op
                yield ("local", local)
                local = 0
            if op == LOAD:
                self.last_load = yield ("mem", "load", ins[1], None, self.crit)
            elif op == STORE:
                v = ins[2]
                yield ("mem", "store", ins[1],
                       self.last_load + 1 if v == INC else v, self.crit)
            elif op == LOCK:
                # test-and-test-and-set: spin until the word reads 0, then
                # take it; a lost test-and-set goes back to spinning
                yield ("mem", "spin", ins[1], None, False)
                while (yield ("mem", "rmw", ins[1], None, False)) != 0:
                    yield ("mem", "spin", ins[1], None, False)
            elif op == UNLOCK:
                yield ("mem", "store", ins[1], 0, False)
            else:
                raise WorkloadError("T%d: unknown opcode %r" % (self.tid, op))
            self.pc += 1
        self.done = True
        if local:
            yield ("local", local)
        yield ("done",)


def apply_crit_marker(core, marker):
    """Toggle the core's crit flag at a critical-section boundary."""
    if marker == CRIT_ENTER:
        if core.crit:
            raise WorkloadError("T%d: nested CRIT_ENTER" % core.tid)
        core.crit = True
    elif marker == CRIT_EXIT:
        if not core.crit:
            raise WorkloadError("T%d: CRIT_EXIT while not critical" % core.tid)
        core.crit = False
    else:
        raise WorkloadError("unknown crit marker %r" % (marker,))

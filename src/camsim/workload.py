"""Lock-intensive microbenchmark generation and in-order core execution.

Each thread repeats: a non-critical phase of LOAD/STORE pairs over its
private scratch region, then LOCK / CRIT_ENTER / increment every shared
counter / CRIT_EXIT / UNLOCK. The crit markers sit inside the lock, so
lock and unlock memory traffic itself is never tagged critical.

Scratch pairs walk fresh blocks (no reuse across pairs or iterations), so
the non-critical phase keeps producing cache-cold misses instead of
degenerating into L1 hits after the first iteration.

Locking is test-and-test-and-set: spin with LOAD until the lock word
reads 0, then attempt an atomic test-and-set (a GETX-backed
read-modify-write); on failure go back to spinning.
"""

from __future__ import annotations

from dataclasses import dataclass

# Instruction opcodes (instructions are tuples starting with one of these).
LOAD = "load"
STORE = "store"          # ("store", addr, value) with value int or "inc"
LOCK = "lock"
UNLOCK = "unlock"
CRIT_ENTER = "crit_enter"
CRIT_EXIT = "crit_exit"
DELAY = "delay"

INC = "inc"              # store value = last loaded value + 1


class WorkloadError(ValueError):
    """Program fails validation (nesting, address map)."""


@dataclass
class Program:
    threads: list
    lock_addr: int
    counter_addrs: list
    scratch_ranges: list              # per-thread (first block addr, n blocks)
    n_threads: int
    n_counters: int
    iters: int
    noncrit_work: int
    block_bytes: int = 64

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
                elif op == DELAY:
                    out.write("T%d DELAY %d\n" % (tid, ins[1]))
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

    threads = []
    scratch_ranges = []
    for t in range(n_threads):
        base = scratch_first + t * per_thread_blocks
        scratch_ranges.append((base * block_bytes, per_thread_blocks))
        seq = []
        fresh = base
        for _ in range(iters):
            for _ in range(noncrit_work):
                a = fresh * block_bytes
                fresh += 1
                seq.append((LOAD, a))
                seq.append((STORE, a, INC))
            seq.append((LOCK, lock_addr))
            seq.append((CRIT_ENTER,))
            for c in counter_addrs:
                seq.append((LOAD, c))
                seq.append((STORE, c, INC))
            seq.append((CRIT_EXIT,))
            seq.append((UNLOCK, lock_addr))
        threads.append(seq)

    prog = Program(threads, lock_addr, counter_addrs, scratch_ranges,
                   n_threads, n_counters, iters, noncrit_work, block_bytes)
    validate_program(prog)
    return prog


def validate_program(prog):
    """Check lock/crit nesting: LOCK .. CRIT_ENTER .. CRIT_EXIT .. UNLOCK."""
    for tid, seq in enumerate(prog.threads):
        held = False
        crit = False
        for i, ins in enumerate(seq):
            op = ins[0]
            if op == LOCK:
                if held:
                    raise WorkloadError("T%d@%d: LOCK while holding" % (tid, i))
                held = True
            elif op == UNLOCK:
                if not held or crit:
                    raise WorkloadError("T%d@%d: UNLOCK out of order" % (tid, i))
                held = False
            elif op == CRIT_ENTER:
                if crit or not held:
                    raise WorkloadError(
                        "T%d@%d: CRIT_ENTER outside a held lock or nested"
                        % (tid, i))
                crit = True
            elif op == CRIT_EXIT:
                if not crit:
                    raise WorkloadError("T%d@%d: CRIT_EXIT without enter"
                                        % (tid, i))
                crit = False
        if held or crit:
            raise WorkloadError("T%d: program ends inside lock/crit section"
                                % tid)


def sequential_oracle(prog):
    """Execute the program's memory semantics with no timing model.

    Threads run one after another, which is a legal serialization of any
    mutex-protected schedule. Returns the final memory image (block
    address -> value) for the shared blocks.
    """
    mem = {}
    for seq in prog.threads:
        last = 0
        for ins in seq:
            op = ins[0]
            if op == LOAD:
                last = mem.get(ins[1], 0)
            elif op == STORE:
                v = ins[2]
                mem[ins[1]] = last + 1 if v == INC else v
            # lock/unlock/markers have no memory effect in a serial run
    return mem


@dataclass
class CoreState:
    """In-order core: one outstanding memory request, per-core crit flag."""

    tid: int
    program: list
    pc: int = 0
    crit: bool = False
    last_load: int = 0
    lock_phase: str = ""              # "" | "spin" | "rmw" | "unlock"
    outstanding: bool = False
    done: bool = False
    # progress accounting for the liveness watchdog
    retired: int = 0

    def step(self, response=None):
        """Retire the blocked op (if any) and run to the next boundary.

        Returns one of:
          ("mem", op, addr, value, crit)  -- issue a memory request and block.
             op: "load" | "store" | "rmw" | "spin". For "spin" the memory
             system completes the request only once the value reads 0.
          ("local", cycles)              -- local work, no memory traffic.
          ("done",)                      -- program finished.
        """
        if self.outstanding:
            self.outstanding = False
            self.retired += 1
            if self.lock_phase == "spin":
                # test-and-test-and-set: observed 0, try to take it
                self.lock_phase = "rmw"
                self.outstanding = True
                return ("mem", "rmw", self.program[self.pc][1], None, False)
            if self.lock_phase == "rmw":
                if response == 0:
                    self.lock_phase = ""
                    self.pc += 1
                else:
                    self.lock_phase = "spin"
                    self.outstanding = True
                    return ("mem", "spin", self.program[self.pc][1], None,
                            False)
            elif self.lock_phase == "unlock":
                self.lock_phase = ""
                self.pc += 1
            else:
                ins = self.program[self.pc]
                if ins[0] == LOAD:
                    self.last_load = response
                self.pc += 1

        local = 0
        while True:
            if self.pc >= len(self.program):
                self.done = True
                return ("done",) if local == 0 else ("local", local)
            ins = self.program[self.pc]
            op = ins[0]
            if op == CRIT_ENTER:
                apply_crit_marker(self, CRIT_ENTER)
                self.pc += 1
                local += 1
            elif op == CRIT_EXIT:
                apply_crit_marker(self, CRIT_EXIT)
                self.pc += 1
                local += 1
            elif op == DELAY:
                self.pc += 1
                return ("local", local + ins[1])
            elif local:
                # charge marker cycles before issuing the next memory op
                return ("local", local)
            elif op == LOAD:
                self.outstanding = True
                return ("mem", "load", ins[1], None, self.crit)
            elif op == STORE:
                v = ins[2]
                value = self.last_load + 1 if v == INC else v
                self.outstanding = True
                return ("mem", "store", ins[1], value, self.crit)
            elif op == LOCK:
                self.lock_phase = "spin"
                self.outstanding = True
                return ("mem", "spin", ins[1], None, False)
            elif op == UNLOCK:
                self.lock_phase = "unlock"
                self.outstanding = True
                return ("mem", "store", ins[1], 0, False)
            else:
                raise WorkloadError("T%d: unknown opcode %r" % (self.tid, op))


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

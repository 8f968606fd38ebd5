"""Per-implementation operation-graph builders for the DES.

Each ``simulate_*`` function builds the operation DAG of the paper's
implementation and runs it through the task-graph scheduler.  Traversal,
pair readiness (:func:`~repro.grid.traversal.replay` on the early-release
ledger) and column partitions (:func:`~repro.grid.traversal.column_partitions`)
are the real schedulers' own, so the pipelined and GPU graphs read the
tiles and compute the pairs the real runs do -- bar the per-socket CPU
model's ghost columns, which each socket reads itself where the real
partitions share one read.  :func:`simulate_mt_cpu` models the paper's
MT-CPU rather than :class:`~repro.impls.cpu.MtCpu`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.grid.neighbors import grid_pairs
from repro.grid.tile_grid import GridPosition, TileGrid, split_range
from repro.grid.traversal import Traversal, column_partitions, replay, traverse
from repro.simulate.costmodel import (
    FIJI_CHECK_PEAKS,
    FIJI_THREADS,
    JAVA_FACTOR,
    PAPER_TILE,
    MachineModel,
)
from repro.simulate.des import TaskGraphSimulator


@dataclass
class SimResult:
    """Outcome of one simulated run."""

    implementation: str
    makespan_seconds: float
    sim: TaskGraphSimulator
    params: dict = field(default_factory=dict)

    @property
    def minutes(self) -> float:
        return self.makespan_seconds / 60.0


# ---------------------------------------------------------------------------
# CPU implementations
# ---------------------------------------------------------------------------


def simulate_simple_cpu(
    machine: MachineModel,
    rows: int,
    cols: int,
    tile: tuple[int, int] = PAPER_TILE,
) -> SimResult:
    """Sequential CPU run: one chain of ops on one core."""
    hw = tile[0] * tile[1]
    cpu = machine.cpu
    sim = TaskGraphSimulator()
    core = sim.resource("cpu", 1)
    grid = TileGrid(rows, cols)
    prev = None
    for _pos, ready in replay(grid, traverse(grid, Traversal.CHAINED_DIAGONAL)):
        prev = sim.op("read+fft", core,
                      cpu.read(hw) + cpu.decode(hw) + cpu.fft(hw),
                      deps=[prev] if prev else [])
        for _pair in ready:
            prev = sim.op("pair", core, cpu.pair_cpu(hw), deps=[prev])
    makespan = sim.run()
    return SimResult("simple-cpu", makespan, sim, {"rows": rows, "cols": cols})


def simulate_mt_cpu(
    machine: MachineModel,
    rows: int,
    cols: int,
    threads: int,
    tile: tuple[int, int] = PAPER_TILE,
) -> SimResult:
    """SPMD row bands: one serial chain per band, time-shared cores.

    This models the paper's MT-CPU, in which the band below reads and
    transforms each band-boundary row again -- what Table II's MT-CPU row
    measures, and why MT-CPU trails Pipelined-CPU at high thread counts.
    :class:`repro.impls.cpu.MtCpu` runs Simple-CPU's loop over column
    partitions instead and builds each column two partitions share once,
    so it reads every tile once: fewer than this schedule (24 against 32
    on a 6x4 grid in 3 bands).
    """
    hw = tile[0] * tile[1]
    cpu = machine.cpu
    slow = machine.thread_slowdown(threads)
    sim = TaskGraphSimulator()
    cores = sim.resource("cpu", threads)
    disk = sim.resource("disk", 1)
    for r0, r1 in split_range(rows, threads):
        prev = None
        start = r0 - 1 if r0 > 0 else r0
        band_cols_prev: list = [None] * cols
        for r in range(start, r1):
            band_cols_cur: list = [None] * cols
            for c in range(cols):
                rd = sim.op("read", disk, cpu.read(hw), deps=[prev] if prev else [])
                prev = sim.op(
                    "fft", cores, (cpu.decode(hw) + cpu.fft(hw)) * slow, deps=[rd]
                )
                band_cols_cur[c] = prev
                if c > 0 and r >= r0:
                    prev = sim.op("pair-w", cores, cpu.pair_cpu(hw) * slow, deps=[prev])
                if band_cols_prev[c] is not None and r >= r0:
                    prev = sim.op("pair-n", cores, cpu.pair_cpu(hw) * slow, deps=[prev])
            band_cols_prev = band_cols_cur
    makespan = sim.run()
    return SimResult(
        "mt-cpu", makespan, sim, {"rows": rows, "cols": cols, "threads": threads}
    )


def simulate_pipelined_cpu(
    machine: MachineModel,
    rows: int,
    cols: int,
    threads: int,
    tile: tuple[int, int] = PAPER_TILE,
    traversal: Traversal = Traversal.CHAINED_DIAGONAL,
) -> SimResult:
    """3-stage CPU pipeline: reader chain feeding a compute worker pool."""
    hw = tile[0] * tile[1]
    cpu = machine.cpu
    slow = machine.thread_slowdown(threads)
    sim = TaskGraphSimulator()
    disk = sim.resource("disk", 1)
    pool = sim.resource("cpu", threads)
    grid = TileGrid(rows, cols)
    fft_of: dict[GridPosition, object] = {}
    prev_read = None
    for pos, ready in replay(grid, traverse(grid, traversal)):
        rd = sim.op("read", disk, cpu.read(hw), deps=[prev_read] if prev_read else [])
        prev_read = rd
        fft_of[pos] = sim.op(
            "fft", pool, (cpu.decode(hw) + cpu.fft(hw)) * slow, deps=[rd]
        )
        for pair in ready:
            sim.op(
                "pair", pool, cpu.pair_cpu(hw) * slow,
                deps=[fft_of[pair.first], fft_of[pair.second]],
            )
    makespan = sim.run()
    return SimResult(
        "pipelined-cpu", makespan, sim,
        {"rows": rows, "cols": cols, "threads": threads},
    )


def simulate_fiji(
    machine: MachineModel,
    rows: int,
    cols: int,
    tile: tuple[int, int] = PAPER_TILE,
    threads: int = FIJI_THREADS,
    java_factor: float = JAVA_FACTOR,
) -> SimResult:
    """ImageJ/Fiji plugin architecture.

    Per pair: reload both tiles, pad to the next power of two of the
    combined extent (2048x2048 for the paper's tiles), transform both,
    correlate, inverse-transform, and CCF-check ``FIJI_CHECK_PEAKS``
    peaks.  ``java_factor`` is the JVM multiplier calibrated to the
    published >3.6 h (see EXPERIMENTS.md).
    """
    h, w = tile

    def pow2(n: int) -> int:
        m = 1
        while m < n:
            m *= 2
        return m

    hw_pad = pow2(h + h // 2) * pow2(w + w // 2)  # plugin pads pair extent
    hw = h * w
    cpu = machine.cpu
    sim = TaskGraphSimulator()
    pool = sim.resource("cpu", threads)
    disk = sim.resource("disk", 1)
    grid = TileGrid(rows, cols)
    slow = machine.thread_slowdown(min(threads, machine.logical_cores))
    per_pair_compute = java_factor * slow * (
        2 * cpu.decode(hw)
        + 2 * cpu.fft(hw_pad)
        + cpu.ncc(hw_pad)
        + cpu.fft(hw_pad)          # inverse transform
        + cpu.reduce_max(hw_pad)
        + FIJI_CHECK_PEAKS * cpu.ccf(hw) / 4.0  # ccf() costs ~1/4 of the 4-way check
    )
    prev_read = None
    for pair in grid_pairs(grid):
        rd = sim.op("read-2", disk, 2 * cpu.read(hw), deps=[prev_read] if prev_read else [])
        prev_read = rd
        sim.op("pair", pool, per_pair_compute, deps=[rd])
    makespan = sim.run()
    return SimResult(
        "imagej-fiji", makespan, sim,
        {"rows": rows, "cols": cols, "threads": threads},
    )


# ---------------------------------------------------------------------------
# GPU implementations
# ---------------------------------------------------------------------------


def simulate_simple_gpu(
    machine: MachineModel,
    rows: int,
    cols: int,
    tile: tuple[int, int] = PAPER_TILE,
) -> SimResult:
    """Synchronous single-stream GPU port: strict program-order chain.

    Every op depends on its predecessor (host blocks on each call), so the
    makespan is the plain sum -- and the trace shows the Fig. 7 gaps: the
    compute engine idles during reads, copies, CCFs, and the per-call
    synchronous overhead.
    """
    hw = tile[0] * tile[1]
    cpu, gpu = machine.cpu, machine.gpu
    transform_bytes = 16 * hw
    sim = TaskGraphSimulator()
    host = sim.resource("host", 1)
    h2d = sim.resource("gpu0.h2d", 1)
    compute = sim.resource("gpu0.compute", 1)
    d2h = sim.resource("gpu0.d2h", 1)
    prev = None

    def chain(name, res, dur):
        nonlocal prev
        prev = sim.op(name, res, dur, deps=[prev] if prev else [])
        return prev

    grid = TileGrid(rows, cols)
    for _pos, ready in replay(grid, traverse(grid, Traversal.CHAINED_DIAGONAL)):
        chain("read", host, cpu.read(hw) + cpu.decode(hw))
        chain("sync", host, gpu.sync_overhead)
        chain("h2d", h2d, gpu.h2d(transform_bytes))
        chain("sync", host, gpu.sync_overhead)
        chain("cufft-fwd", compute, gpu.fft(hw))
        for _pair in ready:
            chain("sync", host, gpu.sync_overhead)
            chain("ncc", compute, gpu.ncc(hw))
            chain("sync", host, gpu.sync_overhead)
            chain("cufft-inv", compute, gpu.fft(hw))
            chain("sync", host, gpu.sync_overhead)
            chain("reduce", compute, gpu.reduce_max(hw))
            chain("sync", host, gpu.sync_overhead)
            chain("d2h", d2h, gpu.d2h(16))
            chain("ccf", host, cpu.ccf(hw))
    makespan = sim.run()
    return SimResult("simple-gpu", makespan, sim, {"rows": rows, "cols": cols})


def simulate_pipelined_gpu(
    machine: MachineModel,
    rows: int,
    cols: int,
    n_gpus: int = 1,
    ccf_threads: int | None = None,
    tile: tuple[int, int] = PAPER_TILE,
    traversal: Traversal = Traversal.CHAINED_DIAGONAL,
    p2p: bool = False,
    p2p_bandwidth: float = 8.0e9,
    hyper_q: bool = False,
) -> SimResult:
    """The Fig. 8 pipeline: per-GPU engines + a shared CCF thread pool.

    :class:`~repro.impls.pipelined_gpu.PipelinedGpu`'s column partitions
    (ghost columns included), one read chain per pipeline contending on
    the shared disk, fully asynchronous engines.

    ``p2p=True`` models the paper's future-work variant for machines with
    more GPUs: instead of redundantly reading and transforming its ghost
    column, each pipeline receives the neighbouring card's transforms over
    a peer-to-peer link (one shared PCIe-switch resource at
    ``p2p_bandwidth`` bytes/s).

    ``hyper_q=True`` models the Kepler GK110 upgrade path (Section VI):
    the hardware scheduler accepts work from multiple host threads, so the
    light NCC/reduce kernels execute on a second concurrent channel while
    cuFFT (which monopolizes registers) keeps its own -- the paper's note
    that the pipeline "can be changed easily to take advantage of
    Hyper-Q".
    """
    hw = tile[0] * tile[1]
    cpu, gpu = machine.cpu, machine.gpu
    transform_bytes = 16 * hw
    if ccf_threads is None:
        # Paper: "multiple threads, based on the number of available CPU
        # cores"; 5 pipeline threads per GPU occupy the rest.
        ccf_threads = max(1, machine.logical_cores - 5 * n_gpus)
    sim = TaskGraphSimulator()
    disk = sim.resource("disk", 1)
    ccf_pool = sim.resource("ccf", ccf_threads)
    parts = column_partitions(TileGrid(rows, cols), n_gpus, traversal, p2p)
    p2p_link = sim.resource("p2p", 1) if p2p and len(parts) > 1 else None
    for g in range(len(parts)):
        sim.resource(f"gpu{g}.h2d", 1)
        sim.resource(f"gpu{g}.compute", 1)
        sim.resource(f"gpu{g}.d2h", 1)
        if hyper_q:
            sim.resource(f"gpu{g}.compute2", 1)

    # Pass 1: the chain (read -> h2d -> fft) of every tile a pipeline
    # reads, its ghost column included unless p2p delivers it.
    fft_by_gpu: list[dict[GridPosition, object]] = [dict() for _ in parts]
    for g, part in enumerate(parts):
        prev_read = None
        for pos in part.order:
            rd = sim.op("read", disk, cpu.read(hw),
                        deps=[prev_read] if prev_read else [])
            prev_read = rd
            cp = sim.op("h2d", f"gpu{g}.h2d", gpu.h2d(transform_bytes), deps=[rd])
            ft = sim.op("cufft-fwd", f"gpu{g}.compute", gpu.fft(hw), deps=[cp])
            fft_by_gpu[g][pos] = ft

    # Pass 2 (p2p only): ghost transforms arrive over the peer link from
    # the western card instead of being recomputed.
    if p2p_link is not None:
        for g in range(1, len(parts)):
            for r in range(rows):
                ghost = GridPosition(r, parts[g].cols[0] - 1)
                src = fft_by_gpu[g - 1][ghost]
                fft_by_gpu[g][ghost] = sim.op(
                    "p2p-copy", "p2p",
                    transform_bytes / p2p_bandwidth, deps=[src],
                )

    # Pass 3: each partition's pair chains.
    for g, part in enumerate(parts):
        local_fft = fft_by_gpu[g]
        for pair in part.pairs:
            kq = f"gpu{g}.compute2" if hyper_q else f"gpu{g}.compute"
            ncc = sim.op("ncc", kq, gpu.ncc(hw),
                         deps=[local_fft[pair.first], local_fft[pair.second]])
            inv = sim.op("cufft-inv", f"gpu{g}.compute", gpu.fft(hw), deps=[ncc])
            red = sim.op("reduce", kq, gpu.reduce_max(hw), deps=[inv])
            cpy = sim.op("d2h", f"gpu{g}.d2h", gpu.d2h(16), deps=[red])
            sim.op("ccf", ccf_pool, cpu.ccf(hw), deps=[cpy])
    makespan = sim.run()
    return SimResult(
        "pipelined-gpu", makespan, sim,
        {"rows": rows, "cols": cols, "gpus": n_gpus,
         "ccf_threads": ccf_threads, "p2p": p2p, "hyper_q": hyper_q},
    )


def simulate_pipelined_cpu_numa(
    machine: MachineModel,
    rows: int,
    cols: int,
    threads: int,
    sockets: int = 2,
    tile: tuple[int, int] = PAPER_TILE,
    traversal: Traversal = Traversal.CHAINED_DIAGONAL,
    socket_efficiency: float = 0.97,
) -> SimResult:
    """Per-socket pipelines (the paper's §IV.B future-work variant).

    ``threads`` are split evenly across ``sockets``; each socket's worker
    pool only contends with itself, so its multi-core efficiency exponent
    improves (``socket_efficiency`` vs the machine-wide
    ``core_efficiency``) at the price of ghost-column duplication between
    partitions -- the same trade the multi-GPU decomposition makes.
    """
    hw = tile[0] * tile[1]
    cpu = machine.cpu
    sockets = max(1, min(sockets, threads, cols))
    per_socket = max(1, threads // sockets)
    # Socket-local slowdown: a socket owns physical_cores/sockets cores.
    phys = max(1, machine.physical_cores // sockets)
    logical = max(1, machine.logical_cores // sockets)
    if per_socket <= phys:
        eff = float(per_socket) ** socket_efficiency
    else:
        eff = phys**socket_efficiency + machine.ht_yield * (
            min(per_socket, logical) - phys
        )
    slow = per_socket / eff

    sim = TaskGraphSimulator()
    disk = sim.resource("disk", 1)
    grid = TileGrid(rows, cols)
    for k, part in enumerate(column_partitions(grid, sockets, traversal)):
        pool = sim.resource(f"cpu{k}", per_socket)
        fft_of: dict[GridPosition, object] = {}
        prev_read = None
        for pos, ready in replay(grid, part.order, part.pairs):
            rd = sim.op("read", disk, cpu.read(hw),
                        deps=[prev_read] if prev_read else [])
            prev_read = rd
            fft_of[pos] = sim.op(
                "fft", pool, (cpu.decode(hw) + cpu.fft(hw)) * slow, deps=[rd]
            )
            for pair in ready:
                sim.op("pair", pool, cpu.pair_cpu(hw) * slow,
                       deps=[fft_of[pair.first], fft_of[pair.second]])
    makespan = sim.run()
    return SimResult(
        "pipelined-cpu-numa", makespan, sim,
        {"rows": rows, "cols": cols, "threads": threads, "sockets": sockets},
    )

"""Composite workloads for flash-based system design.

The paper's introduction motivates uFLIP with the systems being built
on flash at the time — in-page logging DBMSes, FlashDB's self-tuning
B-trees, flash-aware B-tree layers ([8], [11], [14]) — and its hints
tell their designers which IO patterns to use.  This module expresses
those systems' IO behaviour *in* the uFLIP pattern algebra, so the
benchmark can evaluate algorithm designs, not just devices:

* :func:`oltp_mix` — random page reads with a fraction of page updates;
* :func:`log_structured_writer` — pure sequential appends with wrap;
* :func:`external_sort_merge` — the partitioned run-writing phase;
* :func:`btree_inserts` — random leaf updates confined to a working
  set, plus periodic sequential node splits;
* :func:`wal_commit` — in-place header plus appended records (the
  pathological vs flash-aware variants).

Each builder returns ready-to-execute specs;
:func:`evaluate_workload` runs one against a device and reports
throughput, response time and the physical write amplification.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.engine import Engine
from repro.core.patterns import LocationKind, MixSpec, PatternSpec
from repro.errors import PatternError
from repro.flashsim.device import FlashDevice
from repro.iotypes import Mode
from repro.units import KIB, MIB


def oltp_mix(
    capacity: int,
    page_size: int = 32 * KIB,
    io_count: int = 512,
    reads_per_write: int = 4,
    working_set: int = 0,
    seed: int = 42,
) -> MixSpec:
    """An OLTP-style mix: random page reads with interleaved updates.

    ``working_set`` (0 = the whole store) confines reads *and* writes —
    set it to a few MiB to apply Hint 4.  Reads and writes target
    disjoint halves so the mix obeys the state methodology.
    """
    half = (capacity // 2 // page_size) * page_size
    area = min(working_set, half) if working_set else half
    if area < page_size:
        raise PatternError("working set must hold at least one page")
    reads = PatternSpec(
        mode=Mode.READ,
        location=LocationKind.RANDOM,
        io_size=page_size,
        io_count=io_count,
        target_size=area,
        seed=seed,
    )
    writes = PatternSpec(
        mode=Mode.WRITE,
        location=LocationKind.RANDOM,
        io_size=page_size,
        io_count=io_count,
        target_offset=half,
        target_size=area,
        seed=seed + 1,
    )
    return MixSpec(
        primary=reads,
        secondary=writes,
        ratio=reads_per_write,
        io_count=io_count,
    )


def log_structured_writer(
    capacity: int,
    record_size: int = 32 * KIB,
    io_count: int = 512,
    log_bytes: int = 0,
) -> PatternSpec:
    """A log-structured store's writer: sequential appends wrapping
    within the log area (Hints 1-3 applied: large aligned appends)."""
    area = (log_bytes or capacity) // record_size * record_size
    if area < record_size:
        raise PatternError("log area must hold at least one record")
    return PatternSpec(
        mode=Mode.WRITE,
        location=LocationKind.SEQUENTIAL,
        io_size=record_size,
        io_count=io_count,
        target_size=min(area, capacity),
    )


def external_sort_merge(
    capacity: int,
    fan_out: int,
    run_bytes: int = 1 * MIB,
    io_size: int = 32 * KIB,
    io_count: int = 0,
) -> PatternSpec:
    """The merge phase of an external sort writing ``fan_out`` output
    runs round-robin (the paper's own Partitioning example)."""
    if fan_out < 1:
        raise PatternError("fan_out must be >= 1")
    run_bytes = (run_bytes // io_size) * io_size
    target = fan_out * run_bytes
    if target > capacity:
        raise PatternError(
            f"{fan_out} runs of {run_bytes} bytes exceed the device capacity"
        )
    count = io_count or 4 * (target // io_size)  # several laps
    return PatternSpec(
        mode=Mode.WRITE,
        location=LocationKind.PARTITIONED,
        io_size=io_size,
        io_count=count,
        target_size=target,
        partitions=fan_out,
    )


def btree_inserts(
    capacity: int,
    page_size: int = 32 * KIB,
    io_count: int = 512,
    leaf_working_set: int = 4 * MIB,
    splits_per_insert_batch: int = 8,
    seed: int = 42,
) -> MixSpec:
    """B-tree inserts on flash: random leaf rewrites within the hot
    working set, with a sequential split/allocation stream on the side
    (the design space of the paper's B-tree references)."""
    half = (capacity // 2 // page_size) * page_size
    area = min(leaf_working_set, half)
    leaves = PatternSpec(
        mode=Mode.WRITE,
        location=LocationKind.RANDOM,
        io_size=page_size,
        io_count=io_count,
        target_size=area,
        seed=seed,
    )
    splits = PatternSpec(
        mode=Mode.WRITE,
        location=LocationKind.SEQUENTIAL,
        io_size=page_size,
        io_count=io_count,
        target_offset=half,
        target_size=half,
    )
    return MixSpec(
        primary=leaves,
        secondary=splits,
        ratio=splits_per_insert_batch,
        io_count=io_count,
    )


def wal_commit(
    capacity: int,
    flash_aware: bool,
    record_size: int = 4 * KIB,
    io_count: int = 512,
) -> MixSpec:
    """A write-ahead log's commit path.

    Naive: an in-place header rewrite (the Incr = 0 pathology) per
    appended record.  Flash-aware: the header is embedded in a large
    aligned append (Hints 2/3), so both components are sequential.
    """
    half = (capacity // 2 // (32 * KIB)) * 32 * KIB
    if flash_aware:
        records = PatternSpec(
            mode=Mode.WRITE,
            location=LocationKind.SEQUENTIAL,
            io_size=32 * KIB,
            io_count=io_count,
            target_size=half,
        )
        checkpoint = PatternSpec(
            mode=Mode.WRITE,
            location=LocationKind.SEQUENTIAL,
            io_size=32 * KIB,
            io_count=io_count,
            target_offset=half,
            target_size=half,
        )
        return MixSpec(
            primary=records, secondary=checkpoint, ratio=8, io_count=io_count
        )
    records = PatternSpec(
        mode=Mode.WRITE,
        location=LocationKind.SEQUENTIAL,
        io_size=record_size,
        io_count=io_count,
        target_size=(half // record_size) * record_size,
    )
    header = PatternSpec(
        mode=Mode.WRITE,
        location=LocationKind.ORDERED,
        incr=0,
        io_size=record_size,
        io_count=io_count,
        target_offset=half,
        target_size=record_size,
    )
    return MixSpec(primary=records, secondary=header, ratio=1, io_count=io_count)


@dataclass(frozen=True)
class WorkloadReport:
    """Outcome of evaluating one workload on one device."""

    name: str
    io_count: int
    mean_usec: float
    span_usec: float
    bytes_written: int
    physical_programs: int

    @property
    def mean_msec(self) -> float:
        """Mean response time in milliseconds."""
        return self.mean_usec / 1000.0

    @property
    def throughput_mib_s(self) -> float:
        """Host data written per simulated second (MiB/s)."""
        if self.span_usec <= 0:
            return 0.0
        return (self.bytes_written / MIB) / (self.span_usec / 1_000_000.0)

    @property
    def write_amplification(self) -> float:
        """Physical pages programmed per host page written (copies and
        merges included)."""
        if self.bytes_written == 0:
            return 0.0
        return self.physical_programs / max(1, self.host_pages)

    @property
    def host_pages(self) -> int:
        """Host pages written (the write-amplification denominator)."""
        return self._host_pages

    # set in __post_init__-style via object.__setattr__ in evaluate
    _host_pages: int = 0

    def summary(self) -> str:
        """One-line description of the workload outcome."""
        return (
            f"{self.name}: mean {self.mean_msec:.2f} ms, "
            f"{self.throughput_mib_s:.1f} MiB/s, "
            f"WA~{self.write_amplification:.1f}"
        )


def evaluate_workload(
    device: FlashDevice, name: str, spec: PatternSpec | MixSpec
) -> WorkloadReport:
    """Run a workload and condense the outcome."""
    run = Engine(device).run(spec)
    trace = run.trace
    stats = run.stats
    writes = trace.column("write")
    bytes_written = int(trace.column("size")[writes].sum())
    programs = int(
        trace.column("page_programs").sum()
        + trace.column("copy_programs").sum()
    )
    page_size = device.geometry.page_size
    report = WorkloadReport(
        name=name,
        io_count=len(trace),
        mean_usec=stats.mean_usec,
        span_usec=float(
            trace.column("completed_at")[-1] - trace.column("submitted_at")[0]
        ),
        bytes_written=bytes_written,
        physical_programs=programs,
    )
    object.__setattr__(report, "_host_pages", max(1, bytes_written // page_size))
    return report

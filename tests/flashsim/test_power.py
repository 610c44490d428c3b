"""Energy model (the paper's future-work footnote on power)."""

import pytest

from repro.flashsim.power import (
    MLC_POWER,
    SLC_POWER,
    EnergyMeter,
    PowerSpec,
    measure_run_energy,
)
from repro.flashsim.timing import CostAccumulator
from repro.units import KIB, SEC

from tests.conftest import make_device


def test_mlc_draws_more_than_slc():
    assert MLC_POWER.program_page_uj > SLC_POWER.program_page_uj
    assert MLC_POWER.erase_block_uj > SLC_POWER.erase_block_uj


def test_negative_parameters_rejected():
    with pytest.raises(ValueError):
        PowerSpec(read_page_uj=-1.0)


def test_flash_energy_prices_the_cost_accumulator():
    spec = PowerSpec(
        read_page_uj=1.0,
        program_page_uj=10.0,
        erase_block_uj=100.0,
        transfer_per_kib_uj=0.5,
    )
    cost = CostAccumulator(
        page_reads=2,
        copy_reads=3,
        page_programs=4,
        copy_programs=1,
        block_erases=2,
        bytes_transferred=8 * KIB,
    )
    expected = 5 * 1.0 + 5 * 10.0 + 2 * 100.0 + 8 * 0.5
    assert spec.flash_uj(cost) == pytest.approx(expected)


def test_controller_draw_scales_with_time():
    spec = PowerSpec(controller_active_mw=500.0, controller_idle_mw=50.0)
    assert spec.active_uj(1000.0) == pytest.approx(500.0)  # 0.5W x 1ms
    assert spec.idle_uj(1000.0) == pytest.approx(50.0)


def test_io_energy_combines_flash_and_active():
    spec = PowerSpec()
    cost = CostAccumulator(page_programs=1)
    combined = spec.io_uj(cost, 200.0)
    assert combined == pytest.approx(spec.flash_uj(cost) + spec.active_uj(200.0))


def test_energy_meter_accumulates():
    meter = EnergyMeter(SLC_POWER)
    cost = CostAccumulator(page_programs=2, bytes_transferred=4 * KIB)
    first = meter.add(cost, 100.0)
    second = meter.add(cost, 100.0)
    assert first == pytest.approx(second)
    assert meter.total_uj == pytest.approx(first + second)
    assert meter.ios == 2
    assert meter.mean_uj_per_io == pytest.approx(first)


def test_energy_meter_idle_and_rates():
    meter = EnergyMeter(SLC_POWER)
    meter.add(CostAccumulator(page_programs=1), 100.0)
    meter.add_idle(1.0 * SEC)
    assert meter.total_uj > SLC_POWER.idle_uj(1.0 * SEC)
    watts = meter.watts(1.0 * SEC)
    assert 0 < watts < 10  # a sane device-level figure


def test_uj_per_mib_efficiency():
    meter = EnergyMeter(SLC_POWER)
    meter.add(CostAccumulator(page_programs=16, bytes_transferred=32 * KIB), 500.0)
    per_mib = meter.uj_per_mib(32 * KIB)
    assert per_mib == pytest.approx(meter.total_uj * 32)
    assert meter.uj_per_mib(0) == 0.0


def test_measure_run_energy_over_a_device_trace():
    from repro.core.patterns import LocationKind, PatternSpec
    from repro.core.engine import Engine
    from repro.iotypes import Mode

    device = make_device()
    run = Engine(device).run(
        PatternSpec(
            mode=Mode.WRITE,
            location=LocationKind.SEQUENTIAL,
            io_size=16 * KIB,
            io_count=16,
        ),
    )
    meter = measure_run_energy(run.trace, SLC_POWER)
    assert meter.ios == 16
    assert meter.total_uj > 0
    # writes cost more energy than the same number of reads
    read_run = Engine(device).run(
        PatternSpec(
            mode=Mode.READ,
            location=LocationKind.SEQUENTIAL,
            io_size=16 * KIB,
            io_count=16,
        ),
    )
    read_meter = measure_run_energy(read_run.trace, SLC_POWER)
    assert meter.total_uj > read_meter.total_uj

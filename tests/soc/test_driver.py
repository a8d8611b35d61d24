"""Tests for the register-level driver flow (Fig. 4 / §3)."""

import pytest

from repro.align import swg_align
from repro.soc import DriverError, MainMemory, Reg, WfasicDevice, WfasicDriver
from repro.wfasic import WfasicConfig
from repro.wfasic.packets import (
    encode_input_image,
    round_up_read_len,
    unpack_nbt_record,
)
from repro.workloads import make_input_set


def setup_soc(backtrace=False):
    mem = MainMemory(8 * 1024 * 1024)
    dev = WfasicDevice(WfasicConfig.paper_default(backtrace=backtrace), mem)
    drv = WfasicDriver(dev, mem)
    return mem, dev, drv


def batch(name="100-5%", n=4):
    pairs = make_input_set(name, n)
    mrl = round_up_read_len(max(p.max_length for p in pairs))
    return pairs, encode_input_image(pairs, mrl), mrl


class TestFullFlow:
    def test_polling_flow_produces_correct_scores(self):
        pairs, image, mrl = batch()
        _, dev, drv = setup_soc()
        drv.run(image, mrl, backtrace=False)
        with drv.result_stream() as stream:
            records = [
                unpack_nbt_record(stream[i * 4 : (i + 1) * 4])
                for i in range(len(pairs))
            ]
        for rec, pair in zip(records, pairs):
            assert rec.success
            assert rec.score == swg_align(pair.pattern, pair.text).score
        assert drv.poll_count >= 1

    def test_idle_toggles(self):
        pairs, image, mrl = batch(n=2)
        _, dev, drv = setup_soc()
        drv.configure(image, mrl, backtrace=False, result_capacity=4096)
        assert drv._reg_read(Reg.STATUS_IDLE) == 1
        drv.start()
        drv.wait()
        assert drv._reg_read(Reg.STATUS_IDLE) == 1
        assert dev.last_batch is not None

    def test_interrupt_mode(self):
        pairs, image, mrl = batch(n=2)
        _, dev, drv = setup_soc()
        fired = []
        dev.irq.connect(lambda: fired.append(True))
        drv.configure(image, mrl, backtrace=False, result_capacity=4096, irq=True)
        drv.start()
        assert fired == [True]
        assert dev.irq.pending

    def test_no_interrupt_when_disabled(self):
        pairs, image, mrl = batch(n=2)
        _, dev, drv = setup_soc()
        drv.configure(image, mrl, backtrace=False, result_capacity=4096, irq=False)
        drv.start()
        assert dev.irq.raised_count == 0

    def test_bt_register_controls_output_format(self):
        pairs, image, mrl = batch(n=2)
        _, dev, drv = setup_soc(backtrace=False)
        drv.run(image, mrl, backtrace=False)
        mem2, dev2, drv2 = setup_soc(backtrace=True)
        drv2.run(image, mrl, backtrace=True)
        with drv.result_stream() as stream_nbt, drv2.result_stream() as stream_bt:
            assert len(stream_bt) > len(stream_nbt)

    def test_dst_size_register(self):
        pairs, image, mrl = batch(n=5)
        _, dev, drv = setup_soc()
        drv.run(image, mrl, backtrace=False)
        # 5 NBT records -> 2 transactions -> 32 bytes.
        assert drv._reg_read(Reg.DST_SIZE) == 32


class TestDriverErrors:
    def test_start_before_configure(self):
        _, _, drv = setup_soc()
        with pytest.raises(DriverError):
            drv.start()

    def test_result_before_configure(self):
        _, _, drv = setup_soc()
        with pytest.raises(DriverError):
            drv.result_stream()

    def test_bad_max_read_len(self):
        _, _, drv = setup_soc()
        with pytest.raises(DriverError):
            drv.configure(b"", 100, backtrace=False, result_capacity=64)

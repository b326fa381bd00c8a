"""The one frame base, ``candles.Frame``: every column frame passed between
layers casts, checks and freezes its columns in the same constructor."""
from dataclasses import fields

import numpy as np
import pytest

from kellybt.backtest import EquityCurve, Trades
from kellybt.candles import HOUR, CandleSeries
from kellybt.features import LabelSet
from kellybt.labeling import BarrierLabels
from kellybt.predictors import Predictions, Scenarios


def _ts(n):
    return HOUR * np.arange(1, n + 1, dtype=np.int64)


def _floats(n):
    return np.linspace(0.1, 0.9, n)


# name -> (frame class, columns(n) in field order, the other constructor arguments)
FRAMES = {
    "CandleSeries": (CandleSeries, lambda n: [_ts(n), *[np.full(n, 100.0)] * 4, np.ones(n)],
                     {"symbol": "X"}),
    "Predictions": (Predictions, lambda n: [_ts(n), _floats(n)], {}),
    "Scenarios": (Scenarios, lambda n: [_ts(n), _floats(n), _floats(n)], {}),
    "LabelSet": (LabelSet, lambda n: [_ts(n), np.ones(n, np.int8), _floats(n), _floats(n)],
                 {"horizon": 5}),
    "BarrierLabels": (BarrierLabels, lambda n: [np.arange(n), np.ones(n, np.int64),
                                                np.full(n, 5), ["UPPER"] * n], {}),
    "EquityCurve": (EquityCurve, lambda n: [_ts(n), _floats(n)], {"ruin": True, "overflow": True}),
    "Trades": (Trades, lambda n: [_ts(n), _ts(n) + 7200, ["LONG"] * n,
                                  *[_floats(n)] * 5], {}),
}


@pytest.mark.parametrize("name", sorted(FRAMES))
def test_frame_rejects_ragged_or_non_1d_columns_and_freezes_them(name):
    cls, columns, extra = FRAMES[name]
    names = [f.name for f in fields(cls) if f.init and f.name not in extra]

    def make(cols):
        return cls(**dict(zip(names, cols)), **extra)

    cols = columns(3)
    frame = make(cols)
    assert len(frame) == 3
    if cls is not CandleSeries:  # a series is never empty
        assert len(make(columns(0))) == 0
    assert all(getattr(frame, key) == value for key, value in extra.items())
    cols[0][0] += 1  # the frame holds a copy
    for key, col in zip(names, columns(3)):
        got = getattr(frame, key)
        assert got.tolist() == np.asarray(col).tolist()
        assert got.dtype == np.asarray(col).dtype
        assert not got.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            got[0] = got[1]

    for k in range(len(names)):
        col = np.asarray(columns(3)[k])
        for bad in (columns(4)[k], columns(2)[k], col[None, :], col[:, None], col[0]):
            cols = columns(3)
            cols[k] = bad
            with pytest.raises(ValueError, match="must be 1-D and of one length"):
                make(cols)
    with pytest.raises(ValueError, match="must be 1-D and of one length"):
        make([np.asarray(col)[:, None] for col in columns(3)])  # all of one 2-D shape

    for k, col in enumerate(columns(3)):
        col = np.asarray(col)
        if col.dtype.kind == "i":  # a cast that would change a value
            cols = columns(3)  # a fractional int64, an int8 that would wrap
            cols[k] = col + 0.5 if col.dtype == np.int64 else col.astype(np.int64) + 300
            with pytest.raises(ValueError, match=f"cannot hold .* as {col.dtype}"):
                make(cols)



def _read_only(a):
    a.setflags(write=False)
    return a


def test_frame_holds_a_read_only_array_of_its_dtype_as_it_is():
    # An owned read-only array and a read-only view of one: no array can
    # write into either, so the frame holds the object itself.
    values = _read_only(np.arange(1.0, 7.0) / 8)
    ts = _read_only(_ts(6))
    sides = _read_only(np.array(["LONG", "SHORT", "FLAT"] * 2))
    for t, v in ((ts, values), (ts[1:4], values[::2])):
        curve = EquityCurve(t, v)
        assert curve.timestamps is t and curve.values is v
    trades = Trades(ts, ts, sides, *[values] * 5)
    assert trades.entry_ts is ts and trades.side is sides and trades.pnl_fraction is values


@pytest.mark.parametrize("make", [
    lambda: np.arange(1.0, 4.0) / 4,
    lambda: _read_only((np.arange(1.0, 4.0) / 4)[:]),  # its owner stays writable
    lambda: _read_only(np.arange(1.0, 4.0, dtype=np.float32) / 4),
    lambda: _read_only(np.arange(3)),
], ids=["writable", "read-only-view-of-writable", "float32", "int64"])
def test_frame_copies_an_array_that_can_be_written_or_is_of_another_dtype(make):
    values = make()
    curve = EquityCurve(_ts(3), values)
    assert not np.shares_memory(curve.values, values)
    assert curve.values.dtype == np.float64 and not curve.values.flags.writeable
    assert curve.values.tolist() == values.astype(np.float64).tolist()

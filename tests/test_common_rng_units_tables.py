"""Tests for repro.common.rng / tables / errors."""

import numpy as np
import pytest

from repro.common.errors import (
    ConfigError,
    ReproError,
    TimeoutError_,
    UnavailableError,
)
from repro.common.rng import RngFactory, spawn_rng
from repro.common.tables import Table, format_float


class TestRngFactory:
    def test_same_seed_same_streams(self):
        a = RngFactory(42).stream("x")
        b = RngFactory(42).stream("x")
        assert np.array_equal(a.random(8), b.random(8))

    def test_different_names_different_streams(self):
        f = RngFactory(42)
        xs = f.stream("a").random(8)
        ys = f.stream("b").random(8)
        assert not np.array_equal(xs, ys)

    def test_streams_cached(self):
        f = RngFactory(1)
        assert f.stream("s") is f.stream("s")

    def test_order_independence(self):
        f1 = RngFactory(7)
        f1.stream("first")
        v1 = f1.stream("second").random(4)
        f2 = RngFactory(7)
        v2 = f2.stream("second").random(4)  # requested without "first"
        assert np.array_equal(v1, v2)

    def test_non_int_seed_rejected(self):
        with pytest.raises(TypeError):
            RngFactory("seed")  # type: ignore[arg-type]


class TestSpawnRng:
    def test_none_is_deterministic(self):
        assert np.array_equal(spawn_rng(None).random(4), spawn_rng(None).random(4))

    def test_int_seeds(self):
        assert np.array_equal(spawn_rng(5).random(4), spawn_rng(5).random(4))
        assert not np.array_equal(spawn_rng(5).random(4), spawn_rng(6).random(4))

    def test_generator_passthrough(self):
        g = np.random.default_rng(0)
        assert spawn_rng(g) is g

    def test_invalid_type(self):
        with pytest.raises(TypeError):
            spawn_rng("x")  # type: ignore[arg-type]


class TestTables:
    def test_format_float(self):
        assert format_float(3) == "3"
        assert format_float("x") == "x"
        assert format_float(True) == "True"
        assert format_float(3.14159, digits=3) == "3.142"
        assert format_float(float("nan")) == "nan"
        assert "e" in format_float(1.23e-9)
        assert format_float(0.0) == "0"

    def test_row_length_checked(self):
        t = Table("t", ["a", "b"])
        with pytest.raises(ValueError):
            t.add_row([1])

    def test_to_csv(self):
        t = Table("title", ["name", "value"])
        t.add_row(["x", 1.5])
        t.add_row(["with,comma", 2])
        out = t.to_csv()
        assert out == 'name,value\nx,1.5\n"with,comma",2\n'

    def test_render_alignment(self):
        t = Table("title", ["name", "value"])
        t.add_row(["x", 1.5])
        t.add_row(["longer", 22])
        out = t.render()
        lines = out.split("\n")
        assert lines[0] == "title"
        assert "name" in lines[2] and "value" in lines[2]
        # all data lines have equal width
        assert len(set(len(line) for line in lines[1:])) <= 2


class TestErrors:
    def test_hierarchy(self):
        assert issubclass(ConfigError, ReproError)
        assert issubclass(UnavailableError, ReproError)
        assert issubclass(TimeoutError_, ReproError)
        assert issubclass(TimeoutError_, TimeoutError)

    def test_unavailable_message(self):
        err = UnavailableError(required=3, alive=1)
        assert err.required == 3
        assert err.alive == 1
        assert "3" in str(err) and "1" in str(err)

    def test_timeout_message(self):
        err = TimeoutError_(required=2, received=1)
        assert err.required == 2 and err.received == 1

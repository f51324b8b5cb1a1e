"""Job model: request serialization, content keys, record lifecycle."""

import pytest

from repro.experiments.runner import ModelSpec
from repro.noise.engine import NoiseConfig
from repro.noise.receiver import ReceiverModel
from repro.noise.screening import KappaEnvelope
from repro.noise.sweep import SweepGrid
from repro.service.jobs import (
    CANCELLED,
    DONE,
    GeometrySpec,
    JobCancelledError,
    JobRecord,
    JobRequest,
    SimParams,
    sweep_grid_from_dict,
    sweep_grid_to_dict,
)


class TestGeometrySpec:
    def test_build_matches_generators(self):
        assert GeometrySpec("bus", 5).build().num_wires == 5
        assert GeometrySpec("nonaligned_bus", 4).build().num_wires == 4
        assert GeometrySpec("spiral", 3).build().num_wires == 1

    def test_validation(self):
        with pytest.raises(ValueError):
            GeometrySpec("torus", 4)
        with pytest.raises(ValueError):
            GeometrySpec("bus", 0)

    def test_dict_round_trip(self):
        spec = GeometrySpec("nonaligned_bus", 8, segments=2)
        assert GeometrySpec.from_dict(spec.to_dict()) == spec


class TestJobRequest:
    def test_dict_round_trip(self):
        request = JobRequest(
            op="noise",
            geometry=GeometrySpec("bus", 8),
            model=ModelSpec("nw", threshold=0.05),
            sim=SimParams(aggressor=2),
            noise=NoiseConfig(threshold_fraction=0.1),
            verify=True,
        )
        rebuilt = JobRequest.from_dict(request.to_dict())
        assert rebuilt == request
        assert rebuilt.key() == request.key()

    def test_defaults_survive_partial_payload(self):
        rebuilt = JobRequest.from_dict(
            {"op": "extract", "geometry": {"kind": "bus", "size": 4}}
        )
        assert rebuilt == JobRequest(
            op="extract", geometry=GeometrySpec("bus", 4)
        )

    def test_key_is_content_addressed(self):
        base = JobRequest(op="noise", geometry=GeometrySpec("bus", 8))
        same = JobRequest.from_dict(base.to_dict())
        assert same.key() == base.key()
        assert (
            JobRequest(op="extract", geometry=GeometrySpec("bus", 8)).key()
            != base.key()
        )
        assert (
            JobRequest(op="noise", geometry=GeometrySpec("bus", 9)).key()
            != base.key()
        )

    def test_bus8_noise_key_is_pinned(self):
        # Request keys hash every ModelSpec field by name, so this key
        # holds only while ModelSpec keeps its one-value ``solver``
        # field: dropping the field moves every request key and the
        # service digests that hash them.
        request = JobRequest(op="noise", geometry=GeometrySpec("bus", 8))
        assert request.key() == (
            "b966aa7d0e381128a298040e115018f0a568fc69c05ab06397e4a54c1bf47b9b"
        )

    def test_unknown_op_rejected(self):
        with pytest.raises(ValueError):
            JobRequest(op="explode", geometry=GeometrySpec("bus", 4))

    def test_op_specific_section_requirements(self):
        grid = SweepGrid(widths=(4,))
        with pytest.raises(ValueError, match="require geometry"):
            JobRequest(op="noise")
        with pytest.raises(ValueError, match="sweep grid"):
            JobRequest(op="sweep")
        with pytest.raises(ValueError, match="sweep grid"):
            JobRequest(
                op="noise", geometry=GeometrySpec("bus", 4), sweep=grid
            )
        with pytest.raises(ValueError, match="geometry"):
            JobRequest(
                op="sweep", geometry=GeometrySpec("bus", 4), sweep=grid
            )


class TestMalformedValues:
    """A value of the wrong JSON type is rejected with a ``TypeError``
    naming its field (the TCP handler answers it with one ``error``
    event), never coerced and keyed."""

    _NOISE = {"op": "noise", "geometry": {"kind": "bus", "size": 4}}
    _SIMULATE = {"op": "simulate", "geometry": {"kind": "bus", "size": 4}}

    @pytest.mark.parametrize("verify", ["false", "true", 0, 1, None, [True]])
    def test_verify_must_be_a_boolean(self, verify):
        with pytest.raises(TypeError, match="verify"):
            JobRequest.from_dict({**self._NOISE, "verify": verify})

    @pytest.mark.parametrize(
        "section, values, field",
        [
            ("noise", {"receiver": [1]}, "receiver"),
            ("noise", {"receiver": "inverter"}, "receiver"),
            ("noise", {"envelope": 5}, "envelope"),
            ("noise", {"envelope": [0.5, 0.4]}, "envelope"),
            ("sim", {"aggressor": "x"}, "aggressor"),
            ("sim", {"aggressor": 1.0}, "aggressor"),
            ("sim", {"aggressor": True}, "aggressor"),
            ("sim", {"vdd": "1.0"}, "vdd"),
            ("sim", {"rise_time": None}, "rise_time"),
            ("sim", {"t_stop": [3e-10]}, "t_stop"),
            ("sim", {"dt": False}, "dt"),
        ],
        ids=[
            "receiver-list",
            "receiver-string",
            "envelope-number",
            "envelope-list",
            "aggressor-string",
            "aggressor-float",
            "aggressor-bool",
            "vdd-string",
            "rise_time-null",
            "t_stop-list",
            "dt-bool",
        ],
    )
    def test_nested_value_of_the_wrong_type(self, section, values, field):
        base = self._NOISE if section == "noise" else self._SIMULATE
        with pytest.raises(TypeError, match=field):
            JobRequest.from_dict({**base, section: values})

    @pytest.mark.parametrize(
        "field, value",
        [
            ("vdd", "1"),
            ("vdd", True),
            ("schedule_seed", "7"),
            ("schedule_seed", 7.0),
            ("driver_resistance", "50"),
            ("dt", "1e-12"),
            ("threshold_fraction", "0.2"),
            ("period", None),
            ("headroom", [1.2]),
        ],
        ids=[
            "vdd-string",
            "vdd-bool",
            "schedule_seed-string",
            "schedule_seed-float",
            "driver_resistance-string",
            "dt-string",
            "threshold_fraction-string",
            "period-null",
            "headroom-list",
        ],
    )
    def test_noise_scalar_of_the_wrong_type(self, field, value):
        """A noise scan's section and a sweep's base are read alike."""
        with pytest.raises(TypeError, match=f"noise.{field}"):
            JobRequest.from_dict({**self._NOISE, "noise": {field: value}})
        with pytest.raises(TypeError, match=f"noise.{field}"):
            JobRequest.from_dict(
                {"op": "sweep", "sweep": {"base": {field: value}}}
            )

    def test_valid_values_keep_their_keys(self):
        """Accepted values pass as sent: an integer physics value is not
        turned into a float, so its request keys as before."""
        as_sent = JobRequest.from_dict(
            {**self._SIMULATE, "sim": {"aggressor": 2, "vdd": 1}, "verify": True}
        )
        assert as_sent == JobRequest(
            op="simulate",
            geometry=GeometrySpec("bus", 4),
            sim=SimParams(aggressor=2, vdd=1),
            verify=True,
        )
        assert as_sent.sim.vdd == 1 and type(as_sent.sim.vdd) is int
        scan = JobRequest.from_dict({**self._NOISE, "noise": {"vdd": 1}})
        assert scan.noise.vdd == 1 and type(scan.noise.vdd) is int
        quiet = JobRequest.from_dict(
            {**self._NOISE, "noise": {"receiver": None, "envelope": None}}
        )
        assert quiet.key() == JobRequest.from_dict(self._NOISE).key()


class TestSweepRequests:
    def _grid(self) -> SweepGrid:
        return SweepGrid(
            topologies=("bus", "nonaligned_bus"),
            widths=(4, 8),
            drivers=(50.0, 150.0),
            densities=(1.0, 2.5),
            segments=(1, 3),
            base=NoiseConfig(
                threshold_fraction=0.12,
                receiver=ReceiverModel.restoring_inverter(),
                envelope=KappaEnvelope(
                    edge=(0.5, 0.4),
                    center=(0.3, 0.2),
                    edge_reach=2,
                    edge_boost=0.7,
                    family="bus",
                ),
            ),
            model=ModelSpec("nw", threshold=1e-4),
        )

    def test_grid_round_trips_through_json(self):
        import json

        grid = self._grid()
        payload = json.loads(json.dumps(sweep_grid_to_dict(grid)))
        assert sweep_grid_from_dict(payload) == grid

    def test_request_round_trips_with_nested_sections(self):
        import json

        request = JobRequest(op="sweep", sweep=self._grid())
        payload = json.loads(json.dumps(request.to_dict()))
        assert "geometry" not in payload
        rebuilt = JobRequest.from_dict(payload)
        assert rebuilt == request
        assert rebuilt.key() == request.key()
        # The nested frozen dataclasses came back as real objects.
        assert isinstance(rebuilt.sweep.base.receiver, ReceiverModel)
        assert isinstance(rebuilt.sweep.base.envelope, KappaEnvelope)

    def test_key_distinguishes_grids(self):
        base = JobRequest(op="sweep", sweep=self._grid())
        import dataclasses

        denser = dataclasses.replace(
            self._grid(), densities=(1.0, 2.5, 4.0)
        )
        assert (
            JobRequest(op="sweep", sweep=denser).key() != base.key()
        )


class TestJobRecord:
    def _record(self) -> JobRecord:
        return JobRecord(
            id="j1",
            request=JobRequest(op="extract", geometry=GeometrySpec("bus", 4)),
        )

    def test_cancel_before_terminal(self):
        record = self._record()
        assert record.request_cancel() is True
        with pytest.raises(JobCancelledError):
            record.check_cancelled()

    def test_cancel_after_terminal_is_refused(self):
        record = self._record()
        record.status = DONE
        assert record.request_cancel() is False
        record.status = CANCELLED
        assert record.request_cancel() is False

    def test_seconds_needs_both_timestamps(self):
        record = self._record()
        assert record.seconds is None
        record.started = 10.0
        record.finished = 12.5
        assert record.seconds == pytest.approx(2.5)

    def test_to_dict_summary(self):
        payload = self._record().to_dict()
        assert payload["op"] == "extract"
        assert payload["status"] == "queued"
        assert "result" not in payload

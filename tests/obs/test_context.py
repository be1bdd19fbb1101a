"""TraceContext: traceparent parsing, ambient carriage, span stamping."""

from __future__ import annotations

import pytest

from repro.exceptions import ReproError
from repro.obs import (
    TraceContext,
    Tracer,
    current_context,
    new_context,
    new_span_id,
    new_trace_id,
    use_context,
    use_tracer,
)


class TestIds:
    def test_trace_id_is_32_hex(self):
        trace_id = new_trace_id()
        assert len(trace_id) == 32
        int(trace_id, 16)

    def test_span_id_is_16_hex(self):
        span_id = new_span_id()
        assert len(span_id) == 16
        int(span_id, 16)

    def test_ids_are_unique(self):
        assert len({new_trace_id() for _ in range(64)}) == 64


class TestTraceContext:
    def test_traceparent_round_trip(self):
        context = new_context()
        parsed = TraceContext.from_traceparent(context.to_traceparent())
        assert parsed == context

    def test_traceparent_format(self):
        context = TraceContext(trace_id="ab" * 16, span_id="cd" * 8)
        assert context.to_traceparent() == f"00-{'ab' * 16}-{'cd' * 8}-01"

    def test_unsampled_flag(self):
        context = TraceContext(
            trace_id="ab" * 16, span_id="cd" * 8, sampled=False
        )
        header = context.to_traceparent()
        assert header.endswith("-00")
        assert not TraceContext.from_traceparent(header).sampled

    def test_child_keeps_trace_id_fresh_span_id(self):
        parent = new_context()
        child = parent.child()
        assert child.trace_id == parent.trace_id
        assert child.span_id != parent.span_id
        assert child.sampled == parent.sampled

    @pytest.mark.parametrize(
        "header",
        [
            "",
            "not-a-traceparent",
            "00-short-cdcdcdcdcdcdcdcd-01",
            f"00-{'ab' * 16}-{'cd' * 8}",  # missing flags
            f"ff-{'ab' * 16}-{'cd' * 8}-01",  # reserved version
            f"00-{'0' * 32}-{'cd' * 8}-01",  # all-zero trace id
            f"00-{'ab' * 16}-{'0' * 16}-01",  # all-zero span id
        ],
    )
    def test_malformed_traceparent_rejected(self, header):
        with pytest.raises(ReproError):
            TraceContext.from_traceparent(header)

    def test_uppercase_hex_is_normalized(self):
        parsed = TraceContext.from_traceparent(
            f"00-{'AB' * 16}-{'CD' * 8}-01"
        )
        assert parsed.trace_id == "ab" * 16

    def test_invalid_ids_rejected_at_construction(self):
        with pytest.raises(ReproError):
            TraceContext(trace_id="xyz", span_id="cd" * 8)
        with pytest.raises(ReproError):
            TraceContext(trace_id="ab" * 16, span_id="0" * 16)


class TestAmbientContext:
    def test_default_is_none(self):
        assert current_context() is None

    def test_use_context_scopes(self):
        context = new_context()
        with use_context(context):
            assert current_context() is context
        assert current_context() is None


class TestSpanStamping:
    def test_spans_carry_ambient_trace_id(self):
        tracer = Tracer()
        context = new_context()
        with use_context(context), use_tracer(tracer):
            with tracer.span("outer"):
                with tracer.span("inner"):
                    pass
        assert [s.trace_id for s in tracer.spans()] == [context.trace_id] * 2

    def test_unsampled_context_leaves_spans_unstamped(self):
        tracer = Tracer()
        with use_context(new_context(sampled=False)), use_tracer(tracer):
            with tracer.span("outer"):
                pass
        assert tracer.roots[0].trace_id is None

    def test_no_context_leaves_spans_unstamped(self):
        tracer = Tracer()
        with use_tracer(tracer):
            with tracer.span("outer"):
                pass
        assert tracer.roots[0].trace_id is None

    def test_trace_id_lands_in_the_span_payload(self):
        """The ledger stores spans as payloads; the stamp goes with them."""
        tracer = Tracer()
        context = new_context()
        with use_context(context), use_tracer(tracer):
            with tracer.span("outer"):
                with tracer.span("inner"):
                    pass
        payload = tracer.roots[0].to_payload()
        assert payload["trace_id"] == context.trace_id
        assert payload["children"][0]["trace_id"] == context.trace_id

"""The open-loop load generator: one sending thread, completion times
taken from when each terminal response was read off the pipe."""

import json

import workloads
from inputs import ServeJob


class _FakeClient:
    def __init__(self):
        self.sent = []

    def request(self, op, params, request_id):
        self.sent.append((request_id, op))
        return request_id

    def wait(self, rid, timeout):
        return {"id": rid, "status": "done", "ok": True, "result": {"op": rid}}


def _line(rid, status):
    return json.dumps({"id": rid, "status": status}) + "\n"


def test_stamped_reader_notes_each_line_in_order():
    stamped = workloads._Stamped(iter(["a\n", "b\n"]))
    assert list(stamped) == ["a\n", "b\n"]
    assert [line for _, line in stamped.arrivals] == ["a\n", "b\n"]
    assert stamped.arrivals[0][0] <= stamped.arrivals[1][0]


def test_done_is_the_first_terminal_response_read():
    jobs = [ServeJob(index=0, due=0.0, kind="simulate", parent=0),
            ServeJob(index=1, due=0.01, kind="fill", parent=1)]
    client = _FakeClient()
    stamped = workloads._Stamped(iter(()))
    loadgen = workloads._LoadGen(client, stamped, jobs, lambda job: (job.kind, {}))
    # Responses as the reader would have seen them: an ack, a blank
    # line, the terminal responses, then a stray repeat.
    stamped.arrivals = [(1.0, _line("job-1", "accepted")), (1.5, "\n"),
                        (2.0, _line("job-1", "done")), (3.0, _line("job-0", "error")),
                        (4.0, _line("job-0", "done"))]
    start = loadgen.run()
    assert [rid for rid, _ in client.sent] == ["job-0", "job-1"]
    assert loadgen.due == [start, start + 0.01]
    assert all(s >= d for s, d in zip(loadgen.sent, loadgen.due))
    assert loadgen.done == [3.0, 2.0]
    assert [r["result"]["op"] for r in loadgen.responses] == ["job-0", "job-1"]

package cluster

import (
	"encoding/binary"
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"

	"gradoop/internal/core"
	"gradoop/internal/leakcheck"
	"gradoop/internal/session"
	"gradoop/internal/stats"
	"gradoop/internal/trace"
)

// TestOneFramePerAttempt: an attempt's report is one frame each way. Two
// workers, each behind a relay that records every frame it passes, run a
// traced job: each is sent one job frame and sends back one done frame - its
// rows, stage records, metrics and spans in it - and nothing else for the
// attempt; what else a worker sends on its control connection is its welcome
// and its pongs.
func TestOneFramePerAttempt(t *testing.T) {
	g := tinyGraph()
	data := session.NewGraphData(g)
	var mu sync.Mutex
	sent := make([]map[byte]int, 2)     // by worker, the frames it sent, by type
	received := make([]map[byte]int, 2) // by worker, the frames sent to it, by type
	var addrs []string
	for i := range sent {
		sent[i], received[i] = map[byte]int{}, map[byte]int{}
		_, addr := serveWorker(t, fmt.Sprintf("w%d", i), data)
		addrs = append(addrs, relay(t, addr, func(toWorker bool, typ byte, payload []byte) (byte, []byte) {
			mu.Lock()
			if toWorker {
				received[i][typ]++
			} else {
				sent[i][typ]++
			}
			mu.Unlock()
			return typ, payload
		}))
	}
	coord, err := NewCoordinator(addrs, Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	prep, err := core.PrepareWith(stats.Collect(g), joinQuery, core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	_, rep, err := coord.ExecuteRemote(g, prep, core.Config{Trace: trace.NewCollector()})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Attempts != 1 || rep.Trace == nil {
		t.Fatalf("report %+v, want one traced attempt", rep)
	}
	mu.Lock()
	defer mu.Unlock()
	for i := range sent {
		delete(sent[i], frameWelcome)
		delete(sent[i], framePong)
		if want := map[byte]int{frameJobDone: 1}; !reflect.DeepEqual(sent[i], want) {
			t.Errorf("w%d sent frames %v of the attempt, by type: want one done frame (type %d)", i, sent[i], frameJobDone)
		}
		if received[i][frameJob] != 1 {
			t.Errorf("w%d was sent %d job frames, want one", i, received[i][frameJob])
		}
	}
}

// doneSections are where each part of a done frame begins, as offsets into
// the frame as it crosses the socket: the attempt's head, the report's other
// fields, its spans, the result and the checksum.
func doneSections(t *testing.T, frame []byte) map[string][2]int {
	t.Helper()
	body, err := sealedBody(frame[frameHeader:])
	if err != nil {
		t.Fatal(err)
	}
	done, err := decodeJobDone(body)
	if err != nil {
		t.Fatal(err)
	}
	if len(done.Spans) == 0 || len(done.Result) == 0 {
		t.Fatalf("a done report with %d spans and %d bytes of result: the test cuts both", len(done.Spans), len(done.Result))
	}
	head := frameHeader + 16
	spans := done.Spans
	done.Spans = nil
	fields := frameHeader + len(encodeJobDone(done)) - 4 // the span count, and the spans behind it
	done.Spans = spans
	result := frameHeader + len(encodeJobDone(done))
	crc := len(frame) - crcTrailer
	return map[string][2]int{
		"head":   {frameHeader, head},
		"fields": {head, fields},
		"spans":  {fields, result},
		"result": {result, crc},
		"crc":    {crc, len(frame)},
	}
}

// TestTornOrCorruptDoneFrameRecovers: the one frame an attempt is reported
// in can still be cut or corrupted on the wire. A relay in front of w0 cuts
// its first done frame inside each of its sections - the head, the report's
// fields, the spans, the result, the checksum - and closes the connection,
// or flips a byte there and passes it on. Either way the coordinator drops
// w0 and recovers the traced job on w1, with the single-process rows, and
// nothing is left running.
func TestTornOrCorruptDoneFrameRecovers(t *testing.T) {
	g := tinyGraph()
	data := session.NewGraphData(g)
	want, err := session.New(g, session.Options{Workers: 4}).Execute(session.Request{Query: joinQuery})
	if err != nil {
		t.Fatal(err)
	}
	for _, section := range []string{"head", "fields", "spans", "result", "crc"} {
		for _, how := range []string{"cut", "flipped"} {
			t.Run(section+"/"+how, func(t *testing.T) {
				leakcheck.Check(t)
				_, w0 := serveWorker(t, "w0", data)
				_, w1 := serveWorker(t, "w1", data)
				var once sync.Once
				tampered := relayFrames(t, w0, func(toWorker bool, frame []byte) ([]byte, bool) {
					last := false
					if !toWorker && frame[frameHeader-1] == frameJobDone {
						once.Do(func() {
							s := doneSections(t, frame)[section]
							at := (s[0] + s[1]) / 2
							if how == "cut" {
								frame, last = frame[:at], true
							} else {
								frame[at] ^= 0xff
							}
						})
					}
					return frame, last
				})
				// w0 owns partitions 0 and 1, and rows in them.
				coord, err := NewCoordinator([]string{tampered, w1}, Options{Workers: 4, Partitioner: rangePartitioner{}})
				if err != nil {
					t.Fatal(err)
				}
				defer coord.Close()
				s := session.New(g, session.Options{Workers: 4, NoResultCache: true, Remote: coord})
				// A report the coordinator takes for another attempt's would
				// leave this one waiting: the timeout turns that into an error.
				resp, err := s.Execute(session.Request{Query: joinQuery, Trace: true, Timeout: 5 * time.Second})
				if err != nil {
					t.Fatal(err)
				}
				if rep := resp.Cluster; !rep.Recovered || rep.Attempts != 2 || rep.Workers != 1 {
					t.Fatalf("report %+v, want the job recovered on w1 in two attempts", rep)
				}
				if !reflect.DeepEqual(resp.Result.Rows(), want.Result.Rows()) || resp.Count != want.Count {
					t.Fatalf("%d rows, want the %d single-process rows", resp.Count, want.Count)
				}
			})
		}
	}
}

// TestJobSpecTruncated decodes every strict prefix of a job frame's body:
// each is an error, never a panic - the worker drops the control connection
// of a job it cannot read (TestUndecodableControlFrameDropsTheConnection).
func TestJobSpecTruncated(t *testing.T) {
	spec := goldenSpec()
	enc := encodeJobSpec(&spec)
	for cut := 0; cut < len(enc); cut++ {
		var got jobSpec
		if err := decodeJobSpec(enc[:cut], &got); err == nil {
			t.Fatalf("truncation at %d/%d decoded without error", cut, len(enc))
		}
	}
}

// TestJobSpecHostileCounts forges the owner map's and the roster's counts:
// the decoder rejects each before it allocates.
func TestJobSpecHostileCounts(t *testing.T) {
	spec := goldenSpec()
	enc := encodeJobSpec(&spec)
	owners := 8 + 4 + 4 + len(spec.Query) + 4 + len(spec.Params) + 8 + 4 // the owner count follows the partition count
	procs := owners + 4 + 4*len(spec.Owner)
	for name, off := range map[string]int{"owners": owners, "procs": procs} {
		if n := binary.BigEndian.Uint32(enc[off:]); n != 4 && n != 2 {
			t.Fatalf("%s: no count at byte %d (%d)", name, off, n)
		}
		forged := append([]byte(nil), enc...)
		binary.BigEndian.PutUint32(forged[off:], 1<<31)
		var got jobSpec
		if err := decodeJobSpec(forged, &got); err == nil || got.Owner != nil && name == "owners" || got.Procs != nil {
			t.Fatalf("hostile %s count: %v, %d owners and %d procs allocated", name, err, len(got.Owner), len(got.Procs))
		}
	}
}

// TestJobSpecTrailing rejects a byte after a valid job spec: the two sides
// disagree on the layout.
func TestJobSpecTrailing(t *testing.T) {
	spec := goldenSpec()
	var got jobSpec
	if err := decodeJobSpec(append(encodeJobSpec(&spec), 0xEE), &got); err == nil {
		t.Fatal("trailing byte decoded without error")
	}
}

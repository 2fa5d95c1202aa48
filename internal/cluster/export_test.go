package cluster

// Every test of the package runs its workers on scribbled receive memory: a
// buffer an attempt's arena gives back is overwritten before the worker keeps
// it, so a row still read from it after its attempt ended makes a wrong
// answer, not a right one by luck.
func init() { scribbleSpare = true }

// FrameJobDone and FramePong are the types of a worker's done frames and
// pongs, which the tests' proxies read and tamper with.
const (
	FrameJobDone = frameJobDone
	FramePong    = framePong
)

// Report is what a test's proxy reads of a done frame: the attempt it
// reports, its error, the roster indices of the peers it lost and how many
// spans it carries.
type Report struct {
	Attempt int
	Error   string
	Lost    []int
	Spans   int
}

// DoneReport decodes the payload of a done frame.
func DoneReport(payload []byte) (Report, error) {
	body, err := sealedBody(payload)
	if err != nil {
		return Report{}, err
	}
	d, err := decodeJobDone(body)
	if err != nil {
		return Report{}, err
	}
	return Report{Attempt: d.Attempt, Error: d.Error, Lost: d.LostPeers, Spans: len(d.Spans)}, nil
}

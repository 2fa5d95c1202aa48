package cluster

// Every test of the package runs its workers on scribbled receive memory: a
// buffer an attempt's arena gives back is overwritten before the worker keeps
// it, so a row still read from it after its attempt ended makes a wrong
// answer, not a right one by luck.
func init() { scribbleSpare = true }

// FrameJobDone and FrameTelemetry are the types of a worker's done and
// telemetry frames, which the tests' proxies read and tamper with.
const (
	FrameJobDone   = frameJobDone
	FrameTelemetry = frameTelemetry
)

// DoneReport decodes the payload of a done frame: the attempt it reports, its
// error and the roster indices of the peers it lost.
func DoneReport(payload []byte) (attempt int, errText string, lost []int, err error) {
	f, body, err := openAttempt(payload)
	if err != nil {
		return 0, "", nil, err
	}
	d, err := decodeJobDone(body)
	if err != nil {
		return 0, "", nil, err
	}
	return f.Attempt, d.Error, d.LostPeers, nil
}

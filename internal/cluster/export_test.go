package cluster

// Every test of the package runs its workers on scribbled receive memory: a
// buffer an attempt's arena gives back is overwritten before the worker keeps
// it, so a row still read from it after its attempt ended makes a wrong
// answer, not a right one by luck.
func init() { scribbleSpare = true }

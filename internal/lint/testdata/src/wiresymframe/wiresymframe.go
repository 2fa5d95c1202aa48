// Fixtures for the wiresym frame-constant rule, type-checked under the
// real gradoop/internal/cluster import path. Every byte-typed frame*
// constant must be both written (passed to a frame-writing call) and read
// (matched in a switch case or comparison); removing a frame type from the
// reader switch is the acceptance case from the issue.
package cluster

import (
	"encoding/binary"
	"io"
)

const (
	frameInit = byte(1)
	framePush = byte(2)
	// frameNeverSent is matched by the reader but no writer emits it.
	frameNeverSent = byte(3) // want `frame type frameNeverSent has no writer: it is never passed to a frame-writing call`
	// frameNeverRead is written but missing from the reader switch.
	frameNeverRead = byte(4) // want `frame type frameNeverRead has no reader: it never appears in a frame-type switch case or comparison`
	// frameSealed is a checksummed frame: marked in a table, sent by one
	// writer, handled by one reader.
	frameSealed = byte(5)
	// frameSealedUnread is marked and sent, and no reader handles it: the
	// table is neither side of the protocol.
	frameSealedUnread = byte(6) // want `frame type frameSealedUnread has no reader: it never appears in a frame-type switch case or comparison`
)

// sealedFrames marks the checksummed frame types by key.
var sealedFrames = [256]bool{frameSealed: true, frameSealedUnread: true}

func sendSealed(w io.Writer, body []byte) error {
	if !sealedFrames[frameSealed] {
		return nil
	}
	if err := writeFrame(w, frameSealed, body); err != nil {
		return err
	}
	return writeFrame(w, frameSealedUnread, body)
}

func readSealed(typ byte) bool {
	switch typ {
	case frameSealed:
		return true
	}
	return false
}

// frameHeaderLen is untyped and not a frame type; it is exempt.
const frameHeaderLen = 5

func writeFrame(w io.Writer, typ byte, payload []byte) error {
	var hdr [frameHeaderLen]byte
	binary.BigEndian.PutUint32(hdr[:4], uint32(1+len(payload)))
	hdr[4] = typ
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := w.Write(payload)
	return err
}

func sendAll(w io.Writer, body []byte) error {
	if err := writeFrame(w, frameInit, nil); err != nil {
		return err
	}
	if err := writeFrame(w, framePush, body); err != nil {
		return err
	}
	return writeFrame(w, frameNeverRead, nil)
}

func dispatch(typ byte, body []byte) string {
	switch typ {
	case frameInit:
		return "init"
	case framePush:
		return "push"
	}
	if typ == frameNeverSent {
		return "ghost"
	}
	return ""
}

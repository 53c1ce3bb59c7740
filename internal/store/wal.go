// Package store is the durable session storage behind the resolver: a
// write-ahead log of every fact a session learns — record appends,
// candidate prunes, verdict commits (windows of asked, deduced and
// machine verdicts, with provenance, that replay applies through the
// same verdicts.Cache.Apply the live commit did), posted HITs, claim
// leases, raw answers, retractions —
// but not what the session derives from them, plus periodic
// compacting snapshots, so recovering a session is "load snapshot, replay
// WAL tail" rather than re-running (and re-paying) any crowd work.
//
// The Store interface is pluggable: the zero-cost Noop keeps the
// engine's default in-memory behaviour bit-identical to a build without
// this package, and FileLog is the file-backed implementation crowderd
// mounts under -data-dir. Both the log and the snapshot share one frame
// format and one event vocabulary; a snapshot is literally a compacted
// event stream, so the replayer that recovers a session is the same code
// that compacts one.
package store

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
)

// Frame layout: every record on disk — WAL and snapshot alike — is
//
//	magic (1) | payload length (4, LE) | header CRC (4, LE) | payload CRC (4, LE) | payload
//
// The header CRC covers magic+length, so a corrupted length field can
// never send the reader off into the weeds; the payload CRC catches torn
// or bit-rotted payloads. CRC32-Castagnoli on both (hardware-accelerated
// on every platform Go targets).
const (
	frameMagic   = 0xC7
	frameHdrSize = 13
	// maxFramePayload bounds a single frame. Nothing the engine logs
	// comes near this; a "valid" header asking for more is corruption.
	maxFramePayload = 256 << 20
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// appendFrame appends one framed payload to dst and returns the result.
func appendFrame(dst, payload []byte) []byte {
	var hdr [frameHdrSize]byte
	hdr[0] = frameMagic
	binary.LittleEndian.PutUint32(hdr[1:5], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[5:9], crc32.Checksum(hdr[:5], castagnoli))
	binary.LittleEndian.PutUint32(hdr[9:13], crc32.Checksum(payload, castagnoli))
	dst = append(dst, hdr[:]...)
	return append(dst, payload...)
}

// CorruptError reports unrecoverable log damage: a frame whose header or
// payload checksum fails somewhere other than the file's torn tail.
// Recovery fails loudly on it — silently skipping a mid-log hole would
// resurrect a session with paid verdicts missing.
type CorruptError struct {
	File   string
	Offset int64
	Reason string
}

func (e *CorruptError) Error() string {
	return fmt.Sprintf("store: corrupt log %s at offset %d: %s", e.File, e.Offset, e.Reason)
}

// scanFrames walks the framed records in data, calling fn with each
// payload. It returns the byte offset of the end of the last whole frame
// (the point to truncate to before appending) and whether the file ends
// in a torn record.
//
// Torn vs corrupt: a crash can only leave a *prefix* of the last buffered
// write, so damage confined to the final record is tolerated (the record
// is dropped); anything before it must checksum clean or the scan fails
// with a CorruptError.
//
//   - fewer than frameHdrSize bytes remain → torn header, tolerated
//   - header CRC mismatch → corrupt (loud), wherever it happens
//   - header clean but the payload runs past EOF → torn payload, tolerated
//   - payload CRC mismatch on the frame that ends exactly at EOF → torn
//     payload (out-of-order page writes), tolerated
//   - payload CRC mismatch anywhere earlier → corrupt (loud)
func scanFrames(file string, data []byte, fn func(payload []byte) error) (valid int64, torn bool, err error) {
	off := 0
	for off < len(data) {
		rem := len(data) - off
		if rem < frameHdrSize {
			return int64(off), true, nil
		}
		hdr := data[off : off+frameHdrSize]
		wantHdr := binary.LittleEndian.Uint32(hdr[5:9])
		if crc32.Checksum(hdr[:5], castagnoli) != wantHdr {
			return int64(off), false, &CorruptError{File: file, Offset: int64(off), Reason: "header checksum mismatch"}
		}
		if hdr[0] != frameMagic {
			return int64(off), false, &CorruptError{File: file, Offset: int64(off), Reason: fmt.Sprintf("bad magic 0x%02x", hdr[0])}
		}
		n := int(binary.LittleEndian.Uint32(hdr[1:5]))
		if n > maxFramePayload {
			return int64(off), false, &CorruptError{File: file, Offset: int64(off), Reason: fmt.Sprintf("frame length %d exceeds limit", n)}
		}
		if off+frameHdrSize+n > len(data) {
			return int64(off), true, nil
		}
		payload := data[off+frameHdrSize : off+frameHdrSize+n]
		if crc32.Checksum(payload, castagnoli) != binary.LittleEndian.Uint32(hdr[9:13]) {
			if off+frameHdrSize+n == len(data) {
				return int64(off), true, nil
			}
			return int64(off), false, &CorruptError{File: file, Offset: int64(off), Reason: "payload checksum mismatch"}
		}
		if fn != nil {
			if err := fn(payload); err != nil {
				return int64(off), false, err
			}
		}
		off += frameHdrSize + n
	}
	return int64(off), false, nil
}

// ReadEvents decodes the events framed in data — the bytes of one WAL or
// snapshot file, named file in errors — and calls fn with each in order.
// Its results are scanFrames': a torn tail ends the scan quietly,
// corruption or an undecodable event fails it.
func ReadEvents(file string, data []byte, fn func(Event) error) (valid int64, torn bool, err error) {
	return scanFrames(file, data, func(payload []byte) error {
		ev, err := decodeEvent(payload)
		if err != nil {
			return err
		}
		return fn(ev)
	})
}

// writeFrame writes one framed payload to w.
func writeFrame(w io.Writer, payload []byte) (int, error) {
	return w.Write(appendFrame(nil, payload))
}

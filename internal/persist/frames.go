// Streaming record transfer: the log frame encoding reused as a wire
// format. Replication pushes and bulk keyspace transfers move records
// between daemons as the exact [magic][len][crc][payload]... byte stream
// a log file holds, so both ends reuse the battle-tested frame codec
// and a transfer is torn-tail-safe for free: a connection cut mid-frame
// fails the CRC and stops the scan cleanly.
package persist

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
)

// WriteRecords streams records to w in the log file format (header
// magic followed by framed records).
func WriteRecords(w io.Writer, recs []Record) error {
	if _, err := w.Write([]byte(Magic)); err != nil {
		return err
	}
	for _, rec := range recs {
		if _, err := w.Write(EncodeFrame(rec)); err != nil {
			return err
		}
	}
	return nil
}

// ReadRecords decodes a WriteRecords stream. It returns every intact
// record; a torn or corrupt tail (a truncated transfer) is reported as
// an error alongside the records read so far.
func ReadRecords(r io.Reader) ([]Record, error) {
	magic := make([]byte, len(Magic))
	if _, err := io.ReadFull(r, magic); err != nil {
		return nil, fmt.Errorf("persist: record stream: %w", err)
	}
	if string(magic) != Magic {
		return nil, errors.New("persist: record stream: bad header")
	}
	var recs []Record
	hdr := make([]byte, 8)
	for {
		if _, err := io.ReadFull(r, hdr); err != nil {
			if errors.Is(err, io.EOF) {
				return recs, nil
			}
			return recs, fmt.Errorf("persist: record stream: torn frame header: %w", err)
		}
		plen := binary.LittleEndian.Uint32(hdr[0:4])
		wantCRC := binary.LittleEndian.Uint32(hdr[4:8])
		if plen > maxRecordBytes {
			return recs, fmt.Errorf("persist: record stream: bad record length %d", plen)
		}
		payload := make([]byte, plen)
		if _, err := io.ReadFull(r, payload); err != nil {
			return recs, fmt.Errorf("persist: record stream: torn record: %w", err)
		}
		if crc32.Checksum(payload, castagnoli) != wantCRC {
			return recs, errors.New("persist: record stream: checksum mismatch")
		}
		rec, err := decodePayload(payload)
		if err != nil {
			return recs, err
		}
		recs = append(recs, rec)
	}
}

// Streaming record transfer: the log frame encoding reused as a wire
// format. Replication pushes and bulk keyspace transfers move records
// between daemons as the exact [magic][len][crc][payload]... byte stream
// a log file holds, so both ends reuse the battle-tested frame codec
// and a transfer is torn-tail-safe for free: a connection cut mid-frame
// fails the CRC and stops the scan cleanly.
package persist

import (
	"bytes"
	"errors"
	"fmt"
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
	data, err := io.ReadAll(r)
	if !bytes.HasPrefix(data, []byte(Magic)) {
		if err == nil {
			err = errors.New("bad header")
		}
		return nil, fmt.Errorf("persist: record stream: %w", err)
	}
	recs, _, ferr := decodeFrames(data[len(Magic):])
	if err == nil {
		err = ferr
	}
	if err != nil {
		return recs, fmt.Errorf("persist: record stream: %w", err)
	}
	return recs, nil
}

// The sample-file format: JSON lines, one header object followed by
// one object per sample, cells in canonical Dump order. The format is
// versioned and every reader rejects versions it does not understand —
// a sample file is an artifact other tools (cmd/walkprof, CI scripts)
// consume long after the writing binary is gone.

package walkprof

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strconv"
	"unicode/utf8"

	"vdirect/internal/addr"
)

// SchemaVersion is the sample-file (and Dump) schema this package
// writes and understands. Bump it when the record shape changes.
const SchemaVersion = 1

// FileFormat names the format in the header line.
const FileFormat = "vdirect-walkprof"

type fileHeader struct {
	Format        string `json:"format"`
	SchemaVersion int    `json:"schema_version"`
	Period        uint64 `json:"period"`
}

type fileRecord struct {
	Cell   string `json:"cell"`
	Tenant int    `json:"tenant"`
	Scheme string `json:"scheme"`
	Class  string `json:"class"`
	VPN    uint64 `json:"vpn"`
	Size   string `json:"size"`
	Refs   uint64 `json:"refs"`
	Cycles uint64 `json:"cycles"`
	ASID   uint16 `json:"asid"`
}

// Write encodes the dump to w: the header line, then one JSON line per
// sample. Output is byte-deterministic (field order is fixed and the
// dump is already canonically ordered) and byte-identical to
// encoding/json's encoding of fileHeader and fileRecord, which Read
// decodes. Records are appended with strconv rather than reflected
// through json.Encoder, and each cell's shared prefix is built once,
// not once per sample: a sample file holds one line per sampled miss.
func Write(w io.Writer, d Dump) error {
	bw := bufio.NewWriter(w)
	b := append([]byte(`{"format":`), appendJSONString(nil, FileFormat)...)
	b = append(b, `,"schema_version":`...)
	b = strconv.AppendInt(b, SchemaVersion, 10)
	b = append(b, `,"period":`...)
	b = strconv.AppendUint(b, d.Period, 10)
	b = append(b, "}\n"...)
	// A bufio.Writer's error is sticky: a failed header write resurfaces
	// on the first sample write or on Flush.
	_, _ = bw.Write(b)
	for _, c := range d.Cells {
		prefix := appendJSONString([]byte(`{"cell":`), c.Cell)
		prefix = append(prefix, `,"tenant":`...)
		prefix = strconv.AppendInt(prefix, int64(c.Tenant), 10)
		prefix = append(prefix, `,"scheme":`...)
		for _, s := range c.Samples {
			b = appendJSONString(append(b[:0], prefix...), s.Scheme)
			b = append(b, `,"class":`...)
			b = appendJSONString(b, s.Class.String())
			b = append(b, `,"vpn":`...)
			b = strconv.AppendUint(b, s.VPN, 10)
			b = append(b, `,"size":`...)
			b = appendJSONString(b, s.Size.String())
			b = append(b, `,"refs":`...)
			b = strconv.AppendUint(b, s.Refs, 10)
			b = append(b, `,"cycles":`...)
			b = strconv.AppendUint(b, s.Cycles, 10)
			b = append(b, `,"asid":`...)
			b = strconv.AppendUint(b, uint64(s.ASID), 10)
			b = append(b, "}\n"...)
			if _, err := bw.Write(b); err != nil {
				return fmt.Errorf("walkprof: writing sample: %w", err)
			}
		}
	}
	if err := bw.Flush(); err != nil {
		return fmt.Errorf("walkprof: writing samples: %w", err)
	}
	return nil
}

// appendJSONString appends s as a JSON string exactly as encoding/json
// encodes it. Cell, scheme, class and size names are plain printable
// ASCII, which needs only the quotes; any byte encoding/json would
// escape (quotes, backslashes, controls, HTML-sensitive characters,
// non-ASCII) sends the string through encoding/json itself.
func appendJSONString(b []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c >= utf8.RuneSelf || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			q, _ := json.Marshal(s) // a string always marshals
			return append(b, q...)
		}
	}
	b = append(b, '"')
	b = append(b, s...)
	return append(b, '"')
}

// WriteFile writes the dump to path.
func WriteFile(path string, d Dump) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("walkprof: %w", err)
	}
	if err := Write(f, d); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// Read decodes a sample file. Unknown formats and schema versions are
// rejected, not guessed at.
func Read(r io.Reader) (Dump, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<20)
	if !sc.Scan() {
		if err := sc.Err(); err != nil {
			return Dump{}, fmt.Errorf("walkprof: reading header: %w", err)
		}
		return Dump{}, fmt.Errorf("walkprof: empty sample file")
	}
	var h fileHeader
	if err := json.Unmarshal(sc.Bytes(), &h); err != nil {
		return Dump{}, fmt.Errorf("walkprof: decoding header: %w", err)
	}
	if h.Format != FileFormat {
		return Dump{}, fmt.Errorf("walkprof: not a %s file (format %q)", FileFormat, h.Format)
	}
	if h.SchemaVersion != SchemaVersion {
		return Dump{}, fmt.Errorf("walkprof: sample file has schema_version %d; this reader understands %d",
			h.SchemaVersion, SchemaVersion)
	}
	if h.Period < 1 {
		return Dump{}, fmt.Errorf("walkprof: sample file has invalid period %d", h.Period)
	}
	d := Dump{SchemaVersion: h.SchemaVersion, Period: h.Period}
	var cur *CellDump
	line := 1
	for sc.Scan() {
		line++
		if len(sc.Bytes()) == 0 {
			continue
		}
		var rec fileRecord
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			return Dump{}, fmt.Errorf("walkprof: line %d: %w", line, err)
		}
		class, ok := ParseMissClass(rec.Class)
		if !ok {
			return Dump{}, fmt.Errorf("walkprof: line %d: unknown miss class %q", line, rec.Class)
		}
		size, ok := parsePageSize(rec.Size)
		if !ok {
			return Dump{}, fmt.Errorf("walkprof: line %d: unknown page size %q", line, rec.Size)
		}
		if cur == nil || cur.Cell != rec.Cell || cur.Tenant != rec.Tenant {
			d.Cells = append(d.Cells, CellDump{Cell: rec.Cell, Tenant: rec.Tenant})
			cur = &d.Cells[len(d.Cells)-1]
		}
		cur.Samples = append(cur.Samples, Sample{
			VPN:    rec.VPN,
			Size:   size,
			Class:  class,
			Scheme: rec.Scheme,
			Refs:   rec.Refs,
			Cycles: rec.Cycles,
			ASID:   rec.ASID,
		})
	}
	if err := sc.Err(); err != nil {
		return Dump{}, fmt.Errorf("walkprof: reading samples: %w", err)
	}
	return d, nil
}

// ReadFile reads a sample file from path.
func ReadFile(path string) (Dump, error) {
	f, err := os.Open(path)
	if err != nil {
		return Dump{}, fmt.Errorf("walkprof: %w", err)
	}
	defer f.Close()
	return Read(f)
}

func parsePageSize(s string) (addr.PageSize, bool) {
	switch s {
	case "4K":
		return addr.Page4K, true
	case "2M":
		return addr.Page2M, true
	case "1G":
		return addr.Page1G, true
	}
	return 0, false
}

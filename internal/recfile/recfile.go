// Package recfile owns the framed-record discipline of the tree's binary
// formats (the DGRS result store, the DGCF campaign corpus and the DGCK
// checkpoint); each declares only its record layout, as a Format.
//
//	header:  magic [4]byte | uint32 version
//	record:  head | body | uint32 crc32(head[:CRCHead] ‖ body)
//
// Integers are little-endian and the CRC is IEEE CRC-32.
package recfile

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
)

// HeaderLen is the size of the magic | version header.
const HeaderLen = 8

var (
	// ErrCorrupt reports data that does not verify: a bad header, an
	// implausible length, a checksum mismatch, or a record cut short where
	// no torn tail is allowed.
	ErrCorrupt = errors.New("corrupt")
	// ErrVersion reports a header naming another format version.
	ErrVersion = errors.New("format version mismatch")

	// errTorn marks a record running past the end of its data: in a log, a
	// crash mid-append.
	errTorn = errors.New("record runs past the end")
)

// Format declares one format's header and record layout.
type Format struct {
	Magic   string // four bytes
	Version uint32
	Name    string // names the format in a version refusal
	Head    int    // bytes before the body
	CRCHead int    // leading head bytes the CRC covers along with the body
	MaxBody uint64
	// BodyLen reads the body length from a head; false marks a head
	// implausible on the format's own terms.
	BodyLen func(head []byte) (uint64, bool)
}

// AppendHeader appends the magic | version header to dst.
func (f *Format) AppendHeader(dst []byte) []byte {
	return binary.LittleEndian.AppendUint32(append(dst, f.Magic...), f.Version)
}

// CheckHeader checks the magic | version header at the start of data.
func (f *Format) CheckHeader(data []byte) error {
	if len(data) < HeaderLen || string(data[:4]) != f.Magic {
		return fmt.Errorf("%w: bad magic or short header", ErrCorrupt)
	}
	if v := binary.LittleEndian.Uint32(data[4:]); v != f.Version {
		return fmt.Errorf("%w: %s format version %d, this build reads version %d",
			ErrVersion, f.Name, v, f.Version)
	}
	return nil
}

// Append appends a record to dst: head, the body parts in order, the CRC.
func (f *Format) Append(dst, head []byte, body ...[]byte) []byte {
	crc := crc32.ChecksumIEEE(head[:f.CRCHead])
	dst = append(dst, head...)
	for _, b := range body {
		dst = append(dst, b...)
		crc = crc32.Update(crc, crc32.IEEETable, b)
	}
	return binary.LittleEndian.AppendUint32(dst, crc)
}

// Size is the encoded size of a record with the given body.
func (f *Format) Size(body []byte) int64 { return int64(f.Head+len(body)) + 4 }

// ReadAt reads and verifies the record at off in r, whose data ends at
// end. A body running past end is refused before it is allocated.
func (f *Format) ReadAt(r io.ReaderAt, off, end int64) (head, body []byte, err error) {
	if off+int64(f.Head) > end {
		return nil, nil, fmt.Errorf("%w: head at offset %d: %w", ErrCorrupt, off, errTorn)
	}
	head = make([]byte, f.Head)
	if _, err := r.ReadAt(head, off); err != nil {
		return nil, nil, err
	}
	n, ok := f.BodyLen(head)
	if !ok || n > f.MaxBody {
		return nil, nil, fmt.Errorf("%w: implausible record head %x at offset %d", ErrCorrupt, head, off)
	}
	if off+f.Size(nil)+int64(n) > end {
		return nil, nil, fmt.Errorf("%w: %d-byte body at offset %d: %w", ErrCorrupt, n, off, errTorn)
	}
	buf := make([]byte, n+4)
	if _, err := r.ReadAt(buf, off+int64(f.Head)); err != nil {
		return nil, nil, err
	}
	body = buf[:n]
	want := binary.LittleEndian.Uint32(buf[n:])
	if got := crc32.Update(crc32.ChecksumIEEE(head[:f.CRCHead]), crc32.IEEETable, body); got != want {
		return nil, nil, fmt.Errorf("%w: checksum mismatch at offset %d (crc %08x, want %08x)",
			ErrCorrupt, off, got, want)
	}
	return head, body, nil
}

// Log is an append-only file of one format's records. Its owner
// serializes calls.
type Log struct {
	format *Format
	path   string
	file   *os.File
	end    int64 // append offset: the end of the last whole record
}

// Open opens the log at path, creating it, its directory and its header
// when absent, checks the header and hands every record to each in file
// order. A torn tail is truncated away; any other failure, one that each
// returns included, is returned.
func (f *Format) Open(path string, each func(off int64, head, body []byte) error) (*Log, error) {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return nil, err
	}
	file, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, err
	}
	l := &Log{format: f, path: path, file: file}
	if err := l.load(each); err != nil {
		file.Close()
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return l, nil
}

func (l *Log) load(each func(off int64, head, body []byte) error) error {
	info, err := l.file.Stat()
	if err != nil {
		return err
	}
	size := info.Size()
	if size == 0 {
		l.end = HeaderLen
		_, err := l.file.WriteAt(l.format.AppendHeader(nil), 0)
		return err
	}
	hdr := make([]byte, min(size, HeaderLen))
	if _, err := l.file.ReadAt(hdr, 0); err != nil {
		return err
	}
	if err := l.format.CheckHeader(hdr); err != nil {
		return err
	}
	for l.end = HeaderLen; l.end < size; {
		head, body, err := l.format.ReadAt(l.file, l.end, size)
		if errors.Is(err, errTorn) {
			return l.file.Truncate(l.end)
		}
		if err != nil {
			return err
		}
		if err := each(l.end, head, body); err != nil {
			return err
		}
		l.end += l.format.Size(body)
	}
	return nil
}

// Append writes a record at the end of the log and returns its offset.
func (l *Log) Append(head []byte, body ...[]byte) (int64, error) {
	off, rec := l.end, l.format.Append(nil, head, body...)
	if _, err := l.file.WriteAt(rec, off); err != nil {
		return 0, fmt.Errorf("%s: appending: %w", l.path, err)
	}
	l.end += int64(len(rec))
	return off, nil
}

// ReadAt reads and verifies the record at off.
func (l *Log) ReadAt(off int64) (head, body []byte, err error) {
	return l.format.ReadAt(l.file, off, l.end)
}

// Size is the log's length in bytes, header included.
func (l *Log) Size() int64 { return l.end }

// Sync flushes the log to stable storage.
func (l *Log) Sync() error { return l.file.Sync() }

// Close closes the log's file.
func (l *Log) Close() error { return l.file.Close() }

// Rewrite atomically replaces the log's whole file with data, which
// starts with the header: it writes a temporary file beside the log, syncs
// it and renames it over the log. On failure the log is left as it was.
func (l *Log) Rewrite(data []byte) error {
	tmpPath := l.path + ".tmp"
	file, err := os.OpenFile(tmpPath, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	defer os.Remove(tmpPath) // no-op after a successful rename
	if _, err = file.Write(data); err == nil {
		if err = file.Sync(); err == nil {
			err = os.Rename(tmpPath, l.path)
		}
	}
	if err != nil {
		file.Close()
		return err
	}
	l.file.Close() // superseded: nothing more is read from or written to it
	l.file, l.end = file, int64(len(data))
	return nil
}

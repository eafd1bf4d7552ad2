// Package checkpoint persists the In-Memory Column Store to disk and restores
// it: the snapshot-then-redo-catch-up pattern (ROADMAP item 1). A checkpoint
// file carries every serving IMCU with its SMU validity bitmap, the apply and
// journal watermarks, and one consistent checkpoint SCN; a restart restores
// the newest valid file and replays only archived redo past that SCN instead
// of rebuilding every IMCU from the row store.
//
// The on-disk format is versioned and CRC-guarded at two granularities — a
// header CRC and one CRC per section (the shared string pool, then one frame
// per unit) plus a trailer sentinel — so a torn write, truncation or bit flip
// is detected on load and the caller falls back to the full rebuild. Files
// are written to a temporary name and installed with an atomic rename, so a
// crash mid-checkpoint can never shadow the previous good checkpoint with a
// partial one.
package checkpoint

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"dbimadg/internal/imcs"
	"dbimadg/internal/rowstore"
	"dbimadg/internal/scn"
)

const (
	// formatVersion is bumped on any layout change; Load rejects others.
	formatVersion = 1

	filePrefix = "ckpt-"
	fileSuffix = ".imcs"
	tmpSuffix  = ".tmp"
)

var (
	headerMagic  = [8]byte{'I', 'M', 'C', 'S', 'C', 'K', 'P', 'T'}
	trailerMagic = [8]byte{'I', 'M', 'C', 'S', 'T', 'A', 'I', 'L'}

	// ErrNoCheckpoint reports that the directory holds no loadable checkpoint.
	ErrNoCheckpoint = errors.New("checkpoint: no valid checkpoint found")
)

// headerSize is the fixed encoded header: magic, version, unit count,
// checkpoint SCN, apply watermark, journal SCN, created-at unix nanos, CRC.
const headerSize = 8 + 4 + 4 + 8 + 8 + 8 + 8 + 4

// Meta describes one checkpoint file.
type Meta struct {
	Path string
	// SCN is the consistent checkpoint SCN: every captured bitmap reflects all
	// invalidation flushes at or below it, and restore resumes redo at SCN+1.
	SCN scn.SCN
	// Watermark is the apply watermark at capture (== SCN under the quiesce
	// capture protocol; recorded separately for forensics).
	Watermark scn.SCN
	// JournalSCN is the journal/commit-table low watermark at capture.
	JournalSCN  scn.SCN
	CreatedUnix int64 // unix nanoseconds
	Units       int
	Bytes       int64
}

// Snapshot is a loaded checkpoint: validated metadata plus the decoded unit
// images ready for Store.RestoreUnit.
type Snapshot struct {
	Meta   Meta
	Images []imcs.UnitImage
	// SchemaSkipped counts units dropped because their table's schema changed
	// (or the table vanished) between checkpoint and restore; those ranges
	// repopulate from the row store.
	SchemaSkipped int
}

func fileName(at scn.SCN) string {
	return fmt.Sprintf("%s%016x%s", filePrefix, uint64(at), fileSuffix)
}

// Write encodes the images into dir/ckpt-<scn>.imcs and makes it durable:
// the temp file is fsynced, renamed into place, and then the directory is
// fsynced so the rename itself survives a power loss. Either the complete new
// file is visible under its final name or it is not visible at all, and once
// Write returns, the file is on stable storage — only then may older
// snapshots be pruned. Without the first fsync a power loss could persist the
// rename but not the data, leaving a truncated newest file (LoadNewest then
// skips it to the older snapshot, which is why pruning must wait).
func Write(dir string, meta Meta, images []imcs.UnitImage) (Meta, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return Meta{}, fmt.Errorf("checkpoint: %w", err)
	}

	// Pass 1: encode every unit payload, accumulating the shared string pool
	// (the pool section must precede the frames that reference it, and it is
	// only complete once every dictionary has been interned).
	pool := imcs.NewStringPool()
	payloads := make([][]byte, len(images))
	for i, img := range images {
		payloads[i] = imcs.EncodeUnitImage(img, pool)
	}

	final := filepath.Join(dir, fileName(meta.SCN))
	tmp := final + tmpSuffix
	f, err := os.Create(tmp)
	if err != nil {
		return Meta{}, fmt.Errorf("checkpoint: %w", err)
	}
	// Pass 2: stream header, pool, frames; the file CRC accumulates as bytes
	// go out, so nothing is assembled into one whole-file buffer.
	bw := bufio.NewWriterSize(f, 1<<20)
	fileCRC := uint32(0)
	written := int64(0)
	emit := func(p []byte) error {
		fileCRC = crc32.Update(fileCRC, crc32.IEEETable, p)
		written += int64(len(p))
		_, werr := bw.Write(p)
		return werr
	}
	emitFrame := func(p []byte) error {
		var frame [4]byte
		binary.LittleEndian.PutUint32(frame[:], uint32(len(p)))
		if werr := emit(frame[:]); werr != nil {
			return werr
		}
		if werr := emit(p); werr != nil {
			return werr
		}
		binary.LittleEndian.PutUint32(frame[:], crc32.ChecksumIEEE(p))
		return emit(frame[:])
	}
	abort := func(werr error) (Meta, error) {
		f.Close()
		os.Remove(tmp)
		return Meta{}, fmt.Errorf("checkpoint: %w", werr)
	}

	var hdr [headerSize]byte
	copy(hdr[:8], headerMagic[:])
	binary.LittleEndian.PutUint32(hdr[8:12], formatVersion)
	binary.LittleEndian.PutUint32(hdr[12:16], uint32(len(images)))
	binary.LittleEndian.PutUint64(hdr[16:24], uint64(meta.SCN))
	binary.LittleEndian.PutUint64(hdr[24:32], uint64(meta.Watermark))
	binary.LittleEndian.PutUint64(hdr[32:40], uint64(meta.JournalSCN))
	binary.LittleEndian.PutUint64(hdr[40:48], uint64(meta.CreatedUnix))
	binary.LittleEndian.PutUint32(hdr[48:52], crc32.ChecksumIEEE(hdr[:48]))
	if err := emit(hdr[:]); err != nil {
		return abort(err)
	}
	if err := emitFrame(imcs.EncodeStringPool(pool)); err != nil {
		return abort(err)
	}
	for _, payload := range payloads {
		if err := emitFrame(payload); err != nil {
			return abort(err)
		}
	}

	// Trailer: magic + CRC over everything before it. Catches truncation (a
	// torn tail write) even when every intact unit section checksums clean.
	var tail [12]byte
	copy(tail[:8], trailerMagic[:])
	binary.LittleEndian.PutUint32(tail[8:12], fileCRC)
	written += int64(len(tail))
	if _, err := bw.Write(tail[:]); err != nil {
		return abort(err)
	}
	if err := bw.Flush(); err != nil {
		return abort(err)
	}
	if err := f.Sync(); err != nil {
		return abort(err)
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return Meta{}, fmt.Errorf("checkpoint: %w", err)
	}
	if err := os.Rename(tmp, final); err != nil {
		os.Remove(tmp)
		return Meta{}, fmt.Errorf("checkpoint: %w", err)
	}
	if err := syncDir(dir); err != nil {
		return Meta{}, fmt.Errorf("checkpoint: %w", err)
	}
	meta.Path = final
	meta.Units = len(images)
	meta.Bytes = written
	return meta, nil
}

// syncDir fsyncs a directory, persisting the entries (renames) made in it.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}

// readMeta parses and validates the header of one checkpoint file.
func readMeta(path string) (Meta, int, error) {
	f, err := os.Open(path)
	if err != nil {
		return Meta{}, 0, err
	}
	defer f.Close()
	var hdr [headerSize]byte
	if _, err := f.Read(hdr[:]); err != nil {
		return Meta{}, 0, fmt.Errorf("checkpoint: short header: %w", err)
	}
	if [8]byte(hdr[:8]) != headerMagic {
		return Meta{}, 0, errors.New("checkpoint: bad magic")
	}
	if v := binary.LittleEndian.Uint32(hdr[8:12]); v != formatVersion {
		return Meta{}, 0, fmt.Errorf("checkpoint: format version %d, want %d", v, formatVersion)
	}
	if got, want := crc32.ChecksumIEEE(hdr[:48]), binary.LittleEndian.Uint32(hdr[48:52]); got != want {
		return Meta{}, 0, errors.New("checkpoint: header CRC mismatch")
	}
	st, err := f.Stat()
	if err != nil {
		return Meta{}, 0, err
	}
	return Meta{
		Path:        path,
		SCN:         scn.SCN(binary.LittleEndian.Uint64(hdr[16:24])),
		Watermark:   scn.SCN(binary.LittleEndian.Uint64(hdr[24:32])),
		JournalSCN:  scn.SCN(binary.LittleEndian.Uint64(hdr[32:40])),
		CreatedUnix: int64(binary.LittleEndian.Uint64(hdr[40:48])),
		Bytes:       st.Size(),
	}, int(binary.LittleEndian.Uint32(hdr[12:16])), nil
}

// List returns the checkpoint files in dir with valid headers, newest (highest
// SCN) first. Temp files from interrupted writes are ignored.
func List(dir string) []Meta {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil
	}
	var out []Meta
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasPrefix(name, filePrefix) || !strings.HasSuffix(name, fileSuffix) {
			continue
		}
		m, _, err := readMeta(filepath.Join(dir, name))
		if err != nil {
			continue
		}
		out = append(out, m)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].SCN > out[j].SCN })
	return out
}

// Newest returns the newest checkpoint with a valid header. Note the body is
// not verified — use Load (or LoadNewest) before trusting the contents.
func Newest(dir string) (Meta, bool) {
	l := List(dir)
	if len(l) == 0 {
		return Meta{}, false
	}
	return l[0], true
}

// Load reads, CRC-verifies and decodes one checkpoint file. Any structural
// damage — bad magic, torn tail, a unit section failing its CRC — returns an
// error and no snapshot: a checkpoint is restored whole or not at all, except
// for schema-changed units which are individually skipped (DDL between
// checkpoint and restore is legitimate, not corruption).
func Load(path string, resolve func(rowstore.ObjID) *rowstore.Schema) (*Snapshot, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("checkpoint: %w", err)
	}
	if len(data) < headerSize+12 {
		return nil, errors.New("checkpoint: file too short")
	}
	meta, units, err := readMeta(path)
	if err != nil {
		return nil, err
	}
	body, tail := data[:len(data)-12], data[len(data)-12:]
	if [8]byte(tail[:8]) != trailerMagic {
		return nil, errors.New("checkpoint: missing trailer (torn write)")
	}
	if got, want := crc32.ChecksumIEEE(body), binary.LittleEndian.Uint32(tail[8:12]); got != want {
		return nil, errors.New("checkpoint: file CRC mismatch")
	}

	snap := &Snapshot{Meta: meta}
	off := headerSize
	frame := func(what string) ([]byte, error) {
		if off+4 > len(body) {
			return nil, fmt.Errorf("checkpoint: truncated at %s", what)
		}
		n := int(binary.LittleEndian.Uint32(body[off : off+4]))
		off += 4
		if n < 0 || off+n+4 > len(body) {
			return nil, fmt.Errorf("checkpoint: %s overruns file", what)
		}
		payload := body[off : off+n]
		off += n
		if got, want := crc32.ChecksumIEEE(payload), binary.LittleEndian.Uint32(body[off:off+4]); got != want {
			return nil, fmt.Errorf("checkpoint: %s CRC mismatch", what)
		}
		off += 4
		return payload, nil
	}

	poolPayload, err := frame("string pool")
	if err != nil {
		return nil, err
	}
	pool, err := imcs.DecodeStringPool(poolPayload)
	if err != nil {
		return nil, fmt.Errorf("checkpoint: %w", err)
	}
	for i := 0; i < units; i++ {
		payload, err := frame(fmt.Sprintf("unit %d", i))
		if err != nil {
			return nil, err
		}
		img, err := imcs.DecodeUnitImage(payload, pool, resolve)
		if errors.Is(err, imcs.ErrSchemaChanged) {
			snap.SchemaSkipped++
			continue
		}
		if err != nil {
			return nil, fmt.Errorf("checkpoint: unit %d: %w", i, err)
		}
		snap.Images = append(snap.Images, img)
	}
	if off != len(body) {
		return nil, fmt.Errorf("checkpoint: %d trailing bytes before trailer", len(body)-off)
	}
	return snap, nil
}

// LoadNewest restores the newest fully-valid checkpoint in dir, walking past
// corrupt files (newest-first) until one loads clean. ErrNoCheckpoint when
// none does; corrupt is how many damaged files were skipped on the way.
func LoadNewest(dir string, resolve func(rowstore.ObjID) *rowstore.Schema) (snap *Snapshot, corrupt int, err error) {
	for _, m := range List(dir) {
		s, lerr := Load(m.Path, resolve)
		if lerr == nil {
			return s, corrupt, nil
		}
		corrupt++
	}
	return nil, corrupt, ErrNoCheckpoint
}

// Prune removes all but the newest retain checkpoint files (and any leftover
// temp files from interrupted writes).
func Prune(dir string, retain int) {
	if retain < 1 {
		retain = 1
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return
	}
	for _, e := range entries {
		if strings.HasSuffix(e.Name(), tmpSuffix) {
			os.Remove(filepath.Join(dir, e.Name()))
		}
	}
	l := List(dir)
	for _, m := range l[min(retain, len(l)):] {
		os.Remove(m.Path)
	}
}

package wal

import (
	"encoding/binary"
	"fmt"

	"shastamon/internal/labels"
	"shastamon/internal/tenant"
)

// Record type tags: the first byte of every WAL payload, so a replay that
// lands on the wrong store's log fails loudly instead of misparsing.
const (
	RecLogStream byte = 1
	RecSample    byte = 2
)

// AppendUvarint / AppendVarint append a varint to buf.
func AppendUvarint(buf []byte, v uint64) []byte {
	var scratch [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(scratch[:], v)
	return append(buf, scratch[:n]...)
}

func AppendVarint(buf []byte, v int64) []byte {
	var scratch [binary.MaxVarintLen64]byte
	n := binary.PutVarint(scratch[:], v)
	return append(buf, scratch[:n]...)
}

// AppendHeader starts a record payload: the type byte, then the labels of
// the stream or series (uvarint count, length-prefixed name/value pairs).
// A non-default tenant rides in the label set as the reserved __tenant__
// label, so records written before tenancy (no such label) replay into
// the default namespace unchanged. The header is the constant prefix of
// every record a stream logs; stores cache it per stream.
func AppendHeader(buf []byte, typ byte, tenantID string, ls labels.Labels) []byte {
	if tenantID != "" && tenantID != tenant.DefaultID {
		ls = ls.With(tenant.ReservedLabel, tenantID)
	}
	buf = AppendUvarint(append(buf, typ), uint64(len(ls)))
	for _, l := range ls {
		buf = AppendUvarint(buf, uint64(len(l.Name)))
		buf = append(buf, l.Name...)
		buf = AppendUvarint(buf, uint64(len(l.Value)))
		buf = append(buf, l.Value...)
	}
	return buf
}

// ReadUvarint / ReadVarint consume a varint from the front of buf,
// returning the remainder.
func ReadUvarint(buf []byte) (uint64, []byte, error) {
	v, n := binary.Uvarint(buf)
	if n <= 0 {
		return 0, nil, fmt.Errorf("%w: bad uvarint", ErrCorrupt)
	}
	return v, buf[n:], nil
}

func ReadVarint(buf []byte) (int64, []byte, error) {
	v, n := binary.Varint(buf)
	if n <= 0 {
		return 0, nil, fmt.Errorf("%w: bad varint", ErrCorrupt)
	}
	return v, buf[n:], nil
}

// ReadHeader consumes an AppendHeader-encoded record header of the given
// type, strips the reserved tenant label again and returns the rest of the
// payload — the store's own part of the record.
func ReadHeader(payload []byte, typ byte) (tenantID string, ls labels.Labels, rest []byte, err error) {
	if len(payload) == 0 || payload[0] != typ {
		return "", nil, nil, fmt.Errorf("%w: record type", ErrCorrupt)
	}
	count, buf, err := ReadUvarint(payload[1:])
	// A label costs at least two bytes (two empty strings).
	if err != nil || count > uint64(len(buf))/2 {
		return "", nil, nil, fmt.Errorf("%w: label count", ErrCorrupt)
	}
	ls = make(labels.Labels, 0, count)
	for i := uint64(0); i < count; i++ {
		var name, value string
		if name, buf, err = readString(buf); err != nil {
			return "", nil, nil, err
		}
		if value, buf, err = readString(buf); err != nil {
			return "", nil, nil, err
		}
		ls = append(ls, labels.Label{Name: name, Value: value})
	}
	tenantID = tenant.DefaultID
	if v := ls.Get(tenant.ReservedLabel); v != "" {
		tenantID, ls = v, ls.Without(tenant.ReservedLabel)
	}
	return tenantID, ls, buf, nil
}

func readString(buf []byte) (string, []byte, error) {
	n, buf, err := ReadUvarint(buf)
	if err != nil || n > uint64(len(buf)) {
		return "", nil, fmt.Errorf("%w: string length", ErrCorrupt)
	}
	return string(buf[:n]), buf[n:], nil
}

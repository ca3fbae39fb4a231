package serve

import (
	"errors"
	"io"
)

// ErrBodyTooLarge is ReadBody's refusal of a body past its limit.
var ErrBodyTooLarge = errors.New("serve: body over the size limit")

// ReadBody reads an HTTP body — a front's request, a broker's reply — of
// at most limit bytes. length is the message's ContentLength: when the
// peer declared one the body is read into dst's storage if it has room
// (dst's contents are overwritten), into a single allocation of that size
// otherwise, and a declaration past the limit is refused before anything
// is allocated; an undeclared (-1) body is read until it ends or passes
// the limit.
func ReadBody(dst []byte, r io.Reader, length, limit int64) ([]byte, error) {
	if length > limit {
		return nil, ErrBodyTooLarge
	}
	if length >= 0 {
		body := dst[:0]
		if int64(cap(body)) < length {
			body = make([]byte, length)
		}
		body = body[:length]
		if _, err := io.ReadFull(r, body); err != nil {
			return nil, err
		}
		return body, nil
	}
	body, err := io.ReadAll(io.LimitReader(r, limit+1))
	if err != nil {
		return nil, err
	}
	if int64(len(body)) > limit {
		return nil, ErrBodyTooLarge
	}
	return body, nil
}

package proxy

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// The enclave's HTTP/1.1 response reader as it stood before it parsed on
// bytes and decoded bodies into one string, frozen here so the production
// reader has something independent to agree with: FuzzParseResponse runs
// both on every input and allows two differences only, both refusals of
// the production reader — a status code that is not three digits, and the
// ambiguous framings (Content-Length beside Transfer-Encoding, conflicting
// or malformed Content-Length values). Do not edit these.

func frozenReadLine(reader *bufio.Reader, budget *int) (string, error) {
	var line []byte
	for {
		frag, err := reader.ReadSlice('\n')
		*budget -= len(frag)
		if *budget < 0 {
			return "", fmt.Errorf("proxy: engine response headers exceed %d-byte cap", maxEngineHeaderBytes)
		}
		line = append(line, frag...)
		switch err {
		case nil:
			return string(line), nil
		case bufio.ErrBufferFull:
			continue // long line: keep accumulating against the budget
		default:
			return "", err
		}
	}
}

func frozenReadHTTPResponse(reader *bufio.Reader) (body []byte, status int, keepAlive bool, err error) {
	lineBudget := maxEngineHeaderBytes
	statusLine, err := frozenReadLine(reader, &lineBudget)
	if err != nil {
		return nil, 0, false, fmt.Errorf("proxy: read status line: %w", err)
	}
	parts := strings.SplitN(statusLine, " ", 3)
	if len(parts) < 2 {
		return nil, 0, false, fmt.Errorf("proxy: malformed status line %q", statusLine)
	}
	proto := parts[0]
	status, err = strconv.Atoi(strings.TrimSpace(parts[1]))
	if err != nil {
		return nil, 0, false, fmt.Errorf("proxy: status code: %w", err)
	}
	chunked := false
	contentLength := -1
	connClose, connKeep := false, false
	for {
		line, err := frozenReadLine(reader, &lineBudget)
		if err != nil {
			return nil, 0, false, fmt.Errorf("proxy: read headers: %w", err)
		}
		if line == "\r\n" || line == "\n" {
			break
		}
		name, value, ok := strings.Cut(line, ":")
		if !ok {
			continue
		}
		value = strings.TrimSpace(strings.TrimSuffix(value, "\r\n"))
		switch strings.ToLower(name) {
		case "transfer-encoding":
			chunked = strings.Contains(strings.ToLower(value), "chunked")
		case "content-length":
			if n, err := strconv.Atoi(value); err == nil {
				contentLength = n
			}
		case "connection":
			switch strings.ToLower(value) {
			case "close":
				connClose = true
			case "keep-alive":
				connKeep = true
			}
		}
	}
	keepAlive = (proto == "HTTP/1.1" && !connClose) || (proto == "HTTP/1.0" && connKeep)
	switch {
	case chunked:
		body, err = frozenReadChunkedBody(reader, &lineBudget)
		if err != nil {
			return nil, 0, false, err
		}
		return body, status, keepAlive, nil
	case contentLength >= 0:
		if contentLength > maxEngineResponse {
			return nil, 0, false, fmt.Errorf("proxy: engine response %d bytes exceeds cap", contentLength)
		}
		body = make([]byte, contentLength)
		if _, err := io.ReadFull(reader, body); err != nil {
			return nil, 0, false, fmt.Errorf("proxy: read body: %w", err)
		}
		return body, status, keepAlive, nil
	default:
		rest := new(bytes.Buffer)
		if _, err := rest.ReadFrom(io.LimitReader(reader, maxEngineResponse+1)); err != nil {
			return nil, 0, false, err
		}
		if rest.Len() > maxEngineResponse {
			return nil, 0, false, fmt.Errorf("proxy: engine response exceeds %d-byte cap", maxEngineResponse)
		}
		return rest.Bytes(), status, false, nil
	}
}

func frozenReadChunkedBody(reader *bufio.Reader, lineBudget *int) ([]byte, error) {
	var out bytes.Buffer
	for {
		sizeLine, err := frozenReadLine(reader, lineBudget)
		if err != nil {
			return nil, fmt.Errorf("proxy: chunk size: %w", err)
		}
		sizeLine = strings.TrimSpace(sizeLine)
		if idx := strings.IndexByte(sizeLine, ';'); idx >= 0 {
			sizeLine = sizeLine[:idx] // drop chunk extensions
		}
		size, err := strconv.ParseInt(sizeLine, 16, 32)
		if err != nil {
			return nil, fmt.Errorf("proxy: chunk size %q: %w", sizeLine, err)
		}
		if size < 0 || int64(out.Len())+size > maxEngineResponse {
			return nil, fmt.Errorf("proxy: chunked engine response exceeds %d-byte cap", maxEngineResponse)
		}
		if size == 0 {
			for {
				line, err := frozenReadLine(reader, lineBudget)
				if err != nil {
					return nil, fmt.Errorf("proxy: chunk trailers: %w", err)
				}
				if line == "\r\n" || line == "\n" {
					return out.Bytes(), nil
				}
			}
		}
		chunk := make([]byte, size)
		if _, err := io.ReadFull(reader, chunk); err != nil {
			return nil, fmt.Errorf("proxy: chunk body: %w", err)
		}
		out.Write(chunk)
		if _, err := reader.Discard(2); err != nil {
			return nil, fmt.Errorf("proxy: chunk crlf: %w", err)
		}
	}
}

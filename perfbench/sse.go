package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"strings"

	"gpummu/internal/service"
)

// awaitTerminal reads a job's server-sent event stream until a "state"
// event carries a terminal state (done, failed or timeout) and returns that
// job. Progress events are skipped. A stream that ends first is an error.
func awaitTerminal(r io.Reader) (*service.Job, error) {
	br := bufio.NewReader(r)
	var event string
	var data strings.Builder
	for {
		line, err := br.ReadString('\n')
		if err != nil && err != io.EOF {
			return nil, fmt.Errorf("reading events: %w", err)
		}
		if err == io.EOF && line == "" {
			return nil, errors.New("event stream ended before a terminal state")
		}
		line = strings.TrimRight(line, "\r\n")
		switch {
		case line == "":
			if event == "state" {
				var j service.Job
				if err := json.Unmarshal([]byte(data.String()), &j); err != nil {
					return nil, fmt.Errorf("decoding state event: %w", err)
				}
				switch j.State {
				case service.StateDone, service.StateFailed, service.StateTimeout:
					return &j, nil
				}
			}
			event = ""
			data.Reset()
		case strings.HasPrefix(line, "event:"):
			event = strings.TrimSpace(strings.TrimPrefix(line, "event:"))
		case strings.HasPrefix(line, "data:"):
			if data.Len() > 0 {
				data.WriteByte('\n')
			}
			data.WriteString(strings.TrimPrefix(strings.TrimPrefix(line, "data:"), " "))
		}
		if err == io.EOF {
			// A final event not followed by a blank line is incomplete.
			return nil, errors.New("event stream ended before a terminal state")
		}
	}
}

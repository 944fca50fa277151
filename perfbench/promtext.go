package main

import (
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
)

// counters is one scrape of a /metrics page: every sample keyed by its
// series name with labels, exactly as exposed.
type counters map[string]float64

// parseCounters reads the text exposition format. Comment lines are
// skipped and OpenMetrics exemplars (" # {...}") are cut off; a line
// whose value does not parse is an error, since a silently skipped
// counter would read as zero work.
func parseCounters(text string) (counters, error) {
	out := make(counters)
	for _, line := range strings.Split(text, "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		if i := strings.Index(line, " # "); i >= 0 {
			line = line[:i]
		}
		i := strings.LastIndexByte(line, ' ')
		if i <= 0 {
			return nil, fmt.Errorf("metrics line %q: no value", line)
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("metrics line %q: %v", line, err)
		}
		out[strings.TrimSpace(line[:i])] = v
	}
	return out, nil
}

// delta is after minus before for every series in after; a series new
// in after counts from zero.
func delta(before, after counters) counters {
	out := make(counters, len(after))
	for k, v := range after {
		out[k] = v - before[k]
	}
	return out
}

// add sums o into c, series by series (fleet-wide totals over nodes).
func (c counters) add(o counters) {
	for k, v := range o {
		c[k] += v
	}
}

// sumPrefix totals every series whose key starts with prefix, e.g. one
// counter across all its label values.
func (c counters) sumPrefix(prefix string) float64 {
	var s float64
	for k, v := range c {
		if strings.HasPrefix(k, prefix) {
			s += v
		}
	}
	return s
}

func scrape(client *http.Client, url string) (counters, error) {
	resp, err := client.Get(url)
	if err != nil {
		return nil, fmt.Errorf("scraping %s: %w", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("scraping %s: %w", url, err)
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("scraping %s: HTTP %d", url, resp.StatusCode)
	}
	return parseCounters(string(body))
}

// timingEntries reads a Server-Timing header into name → dur value. The
// price path's entries have a parser in the program
// (serve.ParseServerTiming); the scenario path's (expand, price,
// aggregate, evals) do not, so the benchmark reads those itself.
// Entries without a parsable dur are skipped.
func timingEntries(header string) map[string]float64 {
	out := make(map[string]float64)
	for _, entry := range strings.Split(header, ",") {
		params := strings.Split(entry, ";")
		name := strings.TrimSpace(params[0])
		for _, p := range params[1:] {
			k, v, ok := strings.Cut(p, "=")
			if !ok || strings.TrimSpace(k) != "dur" {
				continue
			}
			if f, err := strconv.ParseFloat(strings.TrimSpace(v), 64); err == nil && name != "" {
				out[name] = f
			}
			break
		}
	}
	return out
}

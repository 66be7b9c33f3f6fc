package platform

import (
	"errors"
	"fmt"
	"strconv"
	"strings"

	"repro/internal/storage"
)

// HeaderEpoch carries the fencing token a router believes is current for
// the partition a write targets. A leader compares the stamped token
// against its own: a request stamped with a NEWER token is proof that a
// later promotion happened, so the leader rejects the write with
// ErrStaleEpoch and fences itself — a deposed leader that comes back can
// never accept a single write once any fenced request reaches it. A
// request stamped with an older (or no) token is served: the stamp is a
// fencing floor, not an exact-match requirement, so a router with a
// slightly stale view never causes spurious unavailability.
const HeaderEpoch = "X-Reprowd-Epoch"

// Epoch/fencing errors.
var (
	// ErrStaleEpoch is returned by a write carrying a newer fencing token
	// than the serving leader holds: the leader has been deposed by a
	// later promotion and must not accept the write.
	ErrStaleEpoch = errors.New("platform: write fenced: this leader's epoch is stale")
	// ErrFenced is returned by every write against a fenced node — one
	// that has seen proof (a newer epoch token) that it is no longer the
	// leader of its partition. Unlike ErrReadOnly it carries no redirect:
	// the router re-resolves the partition's current leader.
	ErrFenced = errors.New("platform: node is fenced; a newer leader holds this partition")
)

// EpochToken is the fencing token minted at every promotion: a
// monotonically increasing epoch number plus the name of the node
// promoted in it. Tokens are totally ordered — by epoch, then by holder
// name — so two promotions that race to the same epoch number (a
// partitioned elector and an operator, say) still resolve
// deterministically: exactly one of the two tokens is the greater, every
// observer agrees which, and the loser is fenced.
type EpochToken struct {
	Epoch  uint64 `json:"epoch"`
	Holder string `json:"holder,omitempty"`
}

// IsZero reports an unset token (epoch zero is never minted).
func (t EpochToken) IsZero() bool { return t.Epoch == 0 }

// Less orders tokens: by epoch, ties broken by holder name. The ordering
// is total, which is what makes dueling same-epoch promotions resolvable.
func (t EpochToken) Less(o EpochToken) bool {
	if t.Epoch != o.Epoch {
		return t.Epoch < o.Epoch
	}
	return t.Holder < o.Holder
}

// String renders the wire form "epoch:holder" carried in HeaderEpoch and
// persisted in the journal's meta keyspace.
func (t EpochToken) String() string {
	return strconv.FormatUint(t.Epoch, 10) + ":" + t.Holder
}

// ParseEpochToken parses the wire form. An empty string is the zero token
// (no fencing information), not an error.
func ParseEpochToken(s string) (EpochToken, error) {
	if s == "" {
		return EpochToken{}, nil
	}
	num, holder, _ := strings.Cut(s, ":")
	epoch, err := strconv.ParseUint(num, 10, 64)
	if err != nil {
		return EpochToken{}, fmt.Errorf("platform: malformed epoch token %q: %w", s, err)
	}
	return EpochToken{Epoch: epoch, Holder: holder}, nil
}

// journalEpochKey persists the journal's fencing token in the meta
// keyspace ("jm/", outside the event prefix, so scans never see it and
// checkpoint truncation never removes it — the epoch survives kill -9
// exactly like the truncation record does).
const journalEpochKey = "jm/epoch"

// SetJournalEpoch durably records tok as the store's fencing token,
// fsynced whatever the store's sync policy: a fenced journal commits no
// further groups, so nothing else would carry the token to disk before
// Close. The promotion path writes it next to SeedJournalCut, before the
// journal opens, so a promoted leader restarted at any later point
// recovers the epoch it was promoted in.
func SetJournalEpoch(db *storage.DB, tok EpochToken) error {
	b := storage.NewBatch()
	b.Put([]byte(journalEpochKey), []byte(tok.String()))
	if err := db.ApplyDurable(b); err != nil {
		return fmt.Errorf("platform: set journal epoch: %w", err)
	}
	return nil
}

// JournalEpoch reads the store's persisted fencing token (zero when the
// store predates epochs or was never promoted into).
func JournalEpoch(db *storage.DB) (EpochToken, error) {
	val, ok, err := db.Get([]byte(journalEpochKey))
	if err != nil {
		return EpochToken{}, fmt.Errorf("platform: read journal epoch: %w", err)
	}
	if !ok {
		return EpochToken{}, nil
	}
	tok, err := ParseEpochToken(string(val))
	if err != nil {
		return EpochToken{}, fmt.Errorf("platform: corrupt journal epoch record: %w", err)
	}
	return tok, nil
}

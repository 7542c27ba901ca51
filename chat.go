package globalmmcs

import (
	"time"

	"github.com/globalmmcs/globalmmcs/internal/broker"
	"github.com/globalmmcs/globalmmcs/internal/event"
	"github.com/globalmmcs/globalmmcs/internal/im"
	"github.com/globalmmcs/globalmmcs/internal/metrics"
)

// ChatMessage is one room message.
type ChatMessage struct {
	// From is the sending user.
	From string
	// SessionID is the room's session id.
	SessionID string
	// At is the send time.
	At time.Time
	// Body is the message text.
	Body string
}

func chatFromInternal(m *im.ChatMessage) ChatMessage {
	return ChatMessage{
		From:      m.From,
		SessionID: m.Session,
		At:        time.Unix(0, m.At),
		Body:      m.Body,
	}
}

// PresenceStatus enumerates presence states.
type PresenceStatus string

// Presence states.
const (
	StatusOnline  PresenceStatus = "online"
	StatusAway    PresenceStatus = "away"
	StatusBusy    PresenceStatus = "busy"
	StatusOffline PresenceStatus = "offline"
)

func internalStatus(s PresenceStatus) im.PresenceStatus { return im.PresenceStatus(s) }

// Presence is one user's presence state in a community.
type Presence struct {
	User      string
	Community string
	Status    PresenceStatus
	Note      string
	At        time.Time
}

// defaultChatBuffer is the delivery buffer of chat rooms and presence
// watches absent a WithBuffer option.
const defaultChatBuffer = 64

// ChatRoom is a Stream of a session room's messages, returned by
// Session.Chat. Consume with Recv, All or Chan; Close leaves the room.
type ChatRoom = Stream[ChatMessage]

func newChatRoom(sub *broker.Subscription, reg *metrics.Registry, name string, cfg streamConfig) *ChatRoom {
	return newStream(sub, reg, name, cfg, func(e *event.Event) (ChatMessage, bool) {
		m, err := im.ParseChat(e)
		if err != nil {
			return ChatMessage{}, false
		}
		return chatFromInternal(m), true
	})
}

// PresenceWatch is a Stream of a community's presence updates, returned
// by Client.WatchPresence.
type PresenceWatch = Stream[Presence]

func newPresenceWatch(sub *broker.Subscription, reg *metrics.Registry, name string, cfg streamConfig) *PresenceWatch {
	return newStream(sub, reg, name, cfg, func(e *event.Event) (Presence, bool) {
		p, err := im.ParsePresence(e)
		if err != nil {
			return Presence{}, false
		}
		return Presence{
			User:      p.User,
			Community: p.Community,
			Status:    PresenceStatus(p.Status),
			Note:      p.Note,
			At:        time.Unix(0, p.At),
		}, true
	})
}
